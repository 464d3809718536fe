"""What admission costs and what it holds.

``ArchitectureManager.evaluate`` asks the reservation ledger only about
candidates: violations that entered the violated set since the last
evaluation and waiters the ledger released.  A violation the ledger
blocks waits on its blocker instead of being asked about again at every
wake-up.  Two consequences are pinned here:

* *work* — on the whole-plane benchmark's storm schedule at N = 250,
  the admission checks of every control period are at most the
  violations that entered the violated set in it plus the waiters
  released in it;
* *state* — over full-horizon adapted runs, the checker's journal, the
  parked slots and the candidate set never hold more than the violated
  slots plus the live reservations; the serial engine never parks.

Draining the journal is destructive, so a checker feeds one engine: a
second engine on the same checker is refused when it first evaluates.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro import api
from repro.acme.system import ArchSystem
from repro.constraints.invariants import ConstraintChecker
from repro.errors import RepairError
from repro.experiment.scenarios import scenario_builder
from repro.repair.engine import ArchitectureManager
from repro.repair.ledger import ReservationLedger
from repro.sim import Simulator

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.append(str(BENCHMARKS))

from e2e import workloads  # noqa: E402
from e2e.plane import SIM_PLANE  # noqa: E402

PERIODS = 10


class TestAdmissionWork:
    def test_checks_per_period_are_new_violations_plus_released_waiters(
        self, monkeypatch
    ):
        work = {"checks": 0, "entered": 0, "released": 0}
        seen = {}

        admission_footprint = ArchitectureManager._admission_footprint

        def checked(manager, violation):
            work["checks"] += 1
            return admission_footprint(manager, violation)

        session = ConstraintChecker.session

        def entering(checker, system, full=False):
            before = seen.get(id(checker))
            sess = session(checker, system, full)
            if before is None or before[0] is not sess:
                work["entered"] += len(sess.violated)
            else:
                work["entered"] += len(sess.violated - before[1])
            seen[id(checker)] = (sess, set(sess.violated))
            return sess

        release = ReservationLedger._release

        def releasing(ledger, blocker):
            work["released"] += len(ledger.waiters[blocker])
            release(ledger, blocker)

        monkeypatch.setattr(ArchitectureManager, "_admission_footprint", checked)
        monkeypatch.setattr(ConstraintChecker, "session", entering)
        monkeypatch.setattr(ReservationLedger, "_release", releasing)

        config = dataclasses.replace(SIM_PLANE, pools=250)
        feeds = workloads.WARMUP_PERIODS + PERIODS
        run = workloads.SimPlane(config, seed=7, feeds=feeds)
        schedule = workloads.StormSchedule(run.telemetry.order, config)
        for _ in range(workloads.WARMUP_PERIODS):
            run.period()
        periods = []
        for q in range(PERIODS):
            schedule.apply(run.app, q, run.now, new_hot=True)
            for key in work:
                work[key] = 0
            run.period()
            periods.append(dict(work))
        run.plane.runtime.stop()

        for q, counts in enumerate(periods):
            assert counts["checks"] <= counts["entered"] + counts["released"], q
        # every period a cohort of 5 pools goes hot (and, from the third,
        # another is shrunk): each violation is asked about once, then waits
        # on its own reservation until its repair clears it
        assert sum(p["checks"] for p in periods) >= 5 * PERIODS


def assert_bounded(manager):
    """Journal, parked slots and candidates <= violated + live reservations."""
    sess = manager.checker._session
    ledger = manager._reserved
    if sess is None:
        return
    bound = len(sess.violated) + ledger.total
    assert len(sess.journal) <= bound
    assert sum(len(waiting) for waiting in ledger.waiters.values()) <= bound
    assert len(ledger.parked) <= bound
    assert len(ledger.candidates) <= bound
    if ledger.session is sess:  # no refresh since the engine last read it
        assert ledger.candidates <= sess.violated
        assert ledger.parked.keys() <= sess.violated
        assert not ledger.candidates & ledger.parked.keys()


@pytest.mark.parametrize(
    "name, concurrency", [("client_server", "serial"), ("multi_tenant", "disjoint")]
)
def test_admission_state_stays_bounded(name, concurrency, monkeypatch):
    experiment = scenario_builder(name)(api.RunConfig.adapted(name))
    managers = experiment.build().managers
    assert {m.concurrency for m in managers} == {concurrency}
    step = Simulator.step
    parked = [0]

    def checked_step(sim):
        alive = step(sim)
        for manager in managers:
            assert_bounded(manager)
            parked[0] = max(parked[0], len(manager._reserved.parked))
        return alive

    monkeypatch.setattr(Simulator, "step", checked_step)
    experiment.run()
    assert all(len(m.history) for m in managers)
    if concurrency == "serial":
        assert parked[0] == 0  # the serial engine never parks
    else:
        assert parked[0] > 0


def test_a_checker_feeds_one_engine():
    system = ArchSystem("S")
    system.new_component("a", ["NodeT"]).set_property("load", 3.0)
    checker = ConstraintChecker()
    checker.add_source("low", "load <= 1.0", scope_type="NodeT")
    sim = Simulator()
    first = ArchitectureManager(sim, system, checker, concurrency="disjoint")
    second = ArchitectureManager(sim, system, checker, concurrency="disjoint")
    first.evaluate()
    with pytest.raises(RepairError, match="one repair engine"):
        second.evaluate()
    first.evaluate()  # the first engine keeps its claim
    checker.add_source("high", "load >= 0.0", scope_type="NodeT")
    first.evaluate()  # and claims the new session a rebuild makes
    with pytest.raises(RepairError, match="one repair engine"):
        second.evaluate()
