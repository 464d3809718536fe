"""Concurrent repairs on disjoint footprints (the disjoint scheduler).

Covers the tentpole's contract from every side:

* disjoint violations really do run concurrently (one settle window for
  all of them, per-footprint settle timers);
* overlapping footprints degrade to *exactly* the serial schedule (same
  repair history, same final model state, same timing);
* a late overlap detected at commit conflict-aborts with a trace event
  and rolls the model back;
* human-alert accounting is keyed per scope, so one noisy scope cannot
  mask another's aborts — and conflict aborts never count.
"""

import random
from collections import Counter

import pytest

from repro import api
from repro.acme.system import ArchSystem
from repro.constraints import ConstraintChecker
from repro.errors import RepairAborted, RepairError
from repro.repair import (
    ArchitectureManager,
    FirstSuccessStrategy,
    Footprint,
    PythonStrategy,
    PythonTactic,
    RepairOutcome,
)
from repro.experiment.scenarios import scenario_builder
from repro.repair.resilience import QuarantinePolicy, RetryPolicy
from repro.sim import Simulator


def build_nodes(n=4, latency=5.0):
    """n components, each with a violated scope-local latency bound."""
    system = ArchSystem("S")
    for i in range(n):
        comp = system.new_component(f"n{i}", ["NodeT"])
        comp.set_property("latency", latency)
    return system


def make_checker(repair="fix"):
    checker = ConstraintChecker(bindings={"maxLatency": 2.0})
    checker.add_source("r", "latency <= maxLatency", scope_type="NodeT", repair=repair)
    return checker


def heal_tactic(extra_writes=()):
    """Heals its own scope element; optionally writes shared elements."""

    def script(ctx):
        target = ctx.bindings["__strategy_args__"][0]
        target.set_property("latency", 1.0)
        for name in extra_writes:
            comp = ctx.system.component(name)
            comp.set_property("touched", comp.get_property("touched", 0) + 1)
        ctx.intend("heal", target=target.name)
        return True

    return PythonTactic("heal", script)


class FakeTranslator:
    """Completes each repair after a fixed delay; overlaps freely."""

    def __init__(self, sim, delay=10.0):
        self.sim = sim
        self.delay = delay
        self.executed = []

    def execute(self, intents, on_done=None):
        self.executed.append(list(intents))
        self.sim.schedule(self.delay, on_done or (lambda: None))


def drive(sim, manager, until, period=1.0):
    """Evaluate every ``period`` seconds for ``until`` simulated seconds."""

    def tick():
        manager.evaluate()
        if sim.now + period <= until:
            sim.schedule(period, tick)

    sim.schedule(0.0, tick)
    sim.run(until=until)


def make_manager(system, checker, sim=None, **kwargs):
    sim = sim or Simulator()
    kwargs.setdefault("translator", FakeTranslator(sim))
    kwargs.setdefault("settle_time", 20.0)
    manager = ArchitectureManager(sim, system, checker, **kwargs)
    return sim, manager


class TestFootprint:
    def test_overlap_rules(self):
        a = Footprint.of(["x", "y"])
        b = Footprint.of(["y", "z"])
        c = Footprint.of(["q"])
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)
        assert Footprint.UNIVERSAL.overlaps(c)
        assert c.overlaps(Footprint.UNIVERSAL)
        assert a.union(c).elements == frozenset(["x", "y", "q"])
        assert a.union(Footprint.UNIVERSAL).universal
        assert not Footprint.EMPTY
        assert str(c) == "{q}"
        assert str(Footprint.UNIVERSAL) == "{*}"

    def test_transaction_knows_its_write_set(self):
        from repro.repair.transactions import ModelTransaction

        system = build_nodes(2)
        txn = ModelTransaction(system).begin()
        system.component("n0").set_property("latency", 9.0)
        assert txn.touched().elements == frozenset(["n0"])
        system.new_component("extra")  # structural => unbounded
        assert txn.touched().universal
        txn.abort()

    def test_tactic_footprints_recorded_per_tactic(self):
        system = build_nodes(1)
        checker = make_checker()
        sim, manager = make_manager(system, checker, concurrency="disjoint")
        manager.register_strategy(FirstSuccessStrategy("fix", [heal_tactic()]))
        record = manager.evaluate()
        sim.run(until=15.0)
        assert record.committed
        assert record.footprint is not None
        assert "n0" in record.footprint.elements
        assert [name for name, _ in record.tactic_footprints] == ["heal"]
        assert record.tactic_footprints[0][1].elements == frozenset(["n0"])


class TestDisjointScheduling:
    def test_disjoint_violations_repair_concurrently(self):
        system = build_nodes(4)
        checker = make_checker()
        sim, manager = make_manager(system, checker, concurrency="disjoint")
        manager.register_strategy(FirstSuccessStrategy("fix", [heal_tactic()]))
        manager.evaluate()
        assert manager.inflight == 4
        assert manager.busy
        drive(sim, manager, until=60.0)
        assert len(manager.history.committed) == 4
        assert manager.peak_inflight == 4
        # all four completed inside ONE translator delay, not four
        assert all(r.ended == 10.0 for r in manager.history)

    def test_admission_respects_max_concurrent(self):
        system = build_nodes(4)
        checker = make_checker()
        sim, manager = make_manager(
            system, checker, concurrency="disjoint", max_concurrent_repairs=2
        )
        manager.register_strategy(FirstSuccessStrategy("fix", [heal_tactic()]))
        manager.evaluate()
        assert manager.inflight == 2
        drive(sim, manager, until=120.0)
        assert len(manager.history.committed) == 4
        assert manager.peak_inflight == 2

    def test_per_footprint_settle_timers(self):
        system = build_nodes(2)
        checker = make_checker()
        sim, manager = make_manager(
            system, checker, concurrency="disjoint", settle_time=30.0
        )
        manager.register_strategy(FirstSuccessStrategy("fix", [heal_tactic()]))
        # repair n0 and n1 together; both finish at t=10, settling to t=40
        manager.evaluate()
        sim.run(until=15.0)
        assert not manager.busy
        # n0 re-violates inside its own settle window: deferred...
        system.component("n0").set_property("latency", 9.0)
        assert manager.evaluate() is None
        # ...but an unrelated scope's violation is admitted immediately
        system.new_component("n9", ["NodeT"]).set_property("latency", 9.0)
        record = manager.evaluate()
        assert record is not None and record.scope == "n9"
        sim.run(until=41.0)
        # n0's settle expired; its repair is admitted now
        record = manager.evaluate()
        assert record is not None and record.scope == "n0"

    def test_busy_engine_still_admits_disjoint_work(self):
        system = build_nodes(2)
        checker = make_checker()
        sim, manager = make_manager(system, checker, concurrency="disjoint")
        manager.register_strategy(FirstSuccessStrategy("fix", [heal_tactic()]))
        # admit n0 only (n1 healthy at first evaluation)
        system.component("n1").set_property("latency", 1.0)
        manager.evaluate()
        assert manager.inflight == 1
        # n1 violates while n0's repair is in flight: admitted immediately
        system.component("n1").set_property("latency", 9.0)
        record = manager.evaluate()
        assert record is not None and record.scope == "n1"
        assert manager.inflight == 2

    def test_rejects_unknown_concurrency(self):
        system = build_nodes(1)
        with pytest.raises(RepairError):
            ArchitectureManager(
                Simulator(), system, make_checker(), concurrency="optimistic"
            )
        with pytest.raises(RepairError):
            ArchitectureManager(
                Simulator(), system, make_checker(), max_concurrent_repairs=0
            )


class TestConflictAbort:
    def test_late_overlap_conflict_aborts_at_commit(self):
        system = build_nodes(2)
        shared = system.new_component("shared", ["BudgetT"])
        shared.set_property("touched", 0)
        checker = make_checker()
        sim, manager = make_manager(system, checker, concurrency="disjoint")
        # every repair writes its scope AND the shared budget element
        manager.register_strategy(
            FirstSuccessStrategy("fix", [heal_tactic(extra_writes=["shared"])])
        )
        manager.evaluate()
        # n0 won the shared element; n1's repair hit the late overlap
        assert manager.conflicts == 1
        records = {e.record.scope: e.record for e in manager._inflight.values()}
        assert records["n0"].abort_reason is None
        assert records["n1"].abort_reason == "FootprintConflict"
        assert manager.trace.select("repair.conflict")
        # the conflicting repair rolled back: n1 still violated, shared
        # written exactly once (by n0's committed repair)
        assert system.component("n1").get_property("latency") == 5.0
        assert shared.get_property("touched") == 1
        # conflicts are scheduling artifacts: no abort-alert accounting
        assert manager._consecutive_aborts == {}
        # after the winner settles, the loser retries and commits
        drive(sim, manager, until=80.0)
        assert system.component("n1").get_property("latency") == 1.0
        assert len(manager.history.committed) == 2

    def test_a_write_that_moves_nothing_is_still_a_write(self):
        """The change log marks a write that put back the value already
        there so the *checker* can skip it; a repair's footprint is made
        of what was written, moved or not.  A tactic that re-writes a
        shared element with its current value claims that element:
        ``txn.touched()``, the per-tactic footprint and the commit-time
        conflict verdict are what they were before the log knew the
        difference."""
        from repro.repair.transactions import ModelTransaction

        def rewrite_shared(ctx):
            target = ctx.bindings["__strategy_args__"][0]
            target.set_property("latency", 1.0)
            shared = ctx.system.component("shared")
            shared.set_property("budget", shared.get_property("budget"))
            ctx.intend("heal", target=target.name)
            return True

        system = build_nodes(2)
        shared = system.new_component("shared", ["BudgetT"])
        shared.set_property("budget", 7)
        txn = ModelTransaction(system).begin()
        shared.set_property("budget", 7)
        system.component("n0").set_property("latency", 5.0)
        assert txn.touched() == Footprint(frozenset({"n0", "shared"}))
        txn.abort()

        checker = make_checker()
        sim, manager = make_manager(system, checker, concurrency="disjoint")
        manager.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("heal", rewrite_shared)])
        )
        manager.evaluate()
        records = {e.record.scope: e.record for e in manager._inflight.values()}
        assert records["n0"].abort_reason is None
        assert records["n0"].footprint == Footprint(frozenset({"n0", "shared"}))
        assert records["n0"].tactic_footprints == [
            ("heal", Footprint(frozenset({"n0", "shared"})))
        ]
        # n1's repair wrote the same unchanged value into the element n0
        # holds: a late overlap, conflict-aborted and rolled back
        assert manager.conflicts == 1
        assert records["n1"].abort_reason == "FootprintConflict"
        assert system.component("n1").get_property("latency") == 5.0
        assert shared.get_property("budget") == 7
        drive(sim, manager, until=80.0)
        assert len(manager.history.committed) == 2

    def test_write_into_settling_footprint_conflict_aborts(self):
        """Regression: the commit-time check also guards settle windows.

        A repair whose writes escape its read scope must not commit into
        an element that a *finished* repair is still settling — that
        element's gauges are blind/stale by definition.
        """
        system = build_nodes(2)
        shared = system.new_component("shared", ["BudgetT"])
        shared.set_property("touched", 0)
        checker = make_checker()
        sim, manager = make_manager(
            system, checker, concurrency="disjoint", settle_time=30.0
        )
        manager.register_strategy(
            FirstSuccessStrategy("fix", [heal_tactic(extra_writes=["shared"])])
        )
        # only n0 violated at first: it commits, writing {n0, shared}
        system.component("n1").set_property("latency", 1.0)
        manager.evaluate()
        sim.run(until=15.0)
        assert not manager.busy  # n0 finished at t=10; settling until 40
        # n1 violates while {n0, shared} settles; admission passes (read
        # scope {n1} is free) but the write into `shared` must conflict
        system.component("n1").set_property("latency", 9.0)
        record = manager.evaluate()
        assert record is not None
        assert record.abort_reason == "FootprintConflict"
        assert manager.conflicts == 1
        conflict = manager.trace.select("repair.conflict")[-1]
        assert conflict.data["with_strategy"] == "settling"
        assert shared.get_property("touched") == 1  # rolled back
        # once the settle window passes, the repair goes through
        drive(sim, manager, until=120.0)
        assert system.component("n1").get_property("latency") == 1.0
        assert shared.get_property("touched") == 2

    def test_retry_ignores_a_lapsed_settle_window(self):
        """Regression: a retry fires from the scheduler, not through
        ``evaluate``, so nothing had pruned the settling list — its write
        into a neighbour whose window had already lapsed conflict-aborted
        against the dead window."""
        system = build_nodes(2)
        checker = make_checker()
        sim = Simulator()
        attempts = []

        def heal(ctx):
            target = ctx.bindings["__strategy_args__"][0]
            attempts.append(target.name)
            target.set_property("latency", 1.0)
            if attempts.count("n0") == 2:  # the retry also writes n1
                ctx.system.component("n1").set_property("touched", 1)
            ctx.intend("heal", target=target.name)
            return True

        class FailsFirstN0:
            """One sim-second per repair; n0's first translation errors."""

            failed = False

            def execute(self, intents, on_done=None):
                error = None
                if intents[0].args["target"] == "n0" and not self.failed:
                    self.failed = True
                    error = "EffectorRaise:heal"
                sim.schedule(1.0, on_done, error)

        _, manager = make_manager(
            system,
            checker,
            sim=sim,
            concurrency="disjoint",
            settle_time=30.0,
            translator=FailsFirstN0(),
            retry_policy=RetryPolicy(max_attempts=2, backoff=40.0, jitter=0.0),
        )
        manager.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("heal", heal)])
        )
        # n0 and n1 admitted together at t=0; n1 finishes at t=1 and
        # settles until t=31; n0 fails at t=1 and retries at t=41
        manager.evaluate()
        assert manager.inflight == 2
        sim.run(until=50.0)
        retry = [r for r in manager.history if r.scope == "n0"][-1]
        assert (retry.started, retry.attempt) == (41.0, 2)
        assert retry.abort_reason is None and retry.committed
        assert manager.conflicts == 0
        assert system.component("n1").get_property("touched") == 1

    def test_structural_write_serializes_everything(self):
        """A repair that mutates structure gets a universal footprint:
        later admissions in the same window are blocked, not raced."""
        system = build_nodes(2)
        checker = make_checker()
        sim, manager = make_manager(system, checker, concurrency="disjoint")

        def grow(ctx):
            target = ctx.bindings["__strategy_args__"][0]
            target.set_property("latency", 1.0)
            ctx.system.new_component(f"spare_{target.name}", ["SpareT"])
            ctx.intend("grow", target=target.name)
            return True

        manager.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("grow", grow)])
        )
        manager.evaluate()
        # the first repair's structural write widened its footprint to
        # universal, so the second violation was deferred at admission
        assert manager.inflight == 1
        drive(sim, manager, until=120.0)
        assert manager.conflicts == 0
        assert manager.peak_inflight == 1
        assert len(manager.history.committed) == 2
        assert all(r.footprint.universal for r in manager.history.committed)


class TestSerialDegeneration:
    """Read-footprint overlap on every pair => exactly the serial schedule."""

    def run_engine(self, concurrency, n=4, until=200.0, flaky_scope=None):
        system = build_nodes(n)
        # Non-scope-local invariant: its read footprint is universal, so
        # every pair of violations overlaps at admission time.
        checker = ConstraintChecker(bindings={"maxLatency": 2.0})
        checker.add_source(
            "r",
            "latency <= maxLatency or size(system.components) < 0",
            scope_type="NodeT",
            repair="fix",
        )
        sim, manager = make_manager(system, checker, concurrency=concurrency)

        def heal(ctx):
            target = ctx.bindings["__strategy_args__"][0]
            if target.name == flaky_scope:
                raise RepairAborted("NoServerGroupFound")
            target.set_property("latency", 1.0)
            ctx.intend("heal", target=target.name)
            return True

        manager.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("heal", heal)])
        )
        drive(sim, manager, until=until)
        return system, manager

    @staticmethod
    def schedule_of(manager):
        return [
            (
                r.started,
                r.ended,
                r.strategy,
                r.invariant,
                r.scope,
                r.committed,
                r.tactic_applied,
                r.abort_reason,
                [str(i) for i in r.intents],
            )
            for r in manager.history
        ]

    @staticmethod
    def model_state(system):
        return [(c.name, c.get_property("latency", None)) for c in system.components]

    def test_full_overlap_degenerates_to_serial_schedule(self):
        serial_system, serial = self.run_engine("serial")
        disjoint_system, disjoint = self.run_engine("disjoint")
        assert self.schedule_of(serial) == self.schedule_of(disjoint)
        assert self.model_state(serial_system) == self.model_state(disjoint_system)
        # one admission per settle window, exactly like serial, with the
        # overlap caught at admission (never as a commit-time conflict)
        assert disjoint.peak_inflight == 1
        assert disjoint.conflicts == 0
        assert len(serial.history.committed) == 4

    def test_degeneration_holds_across_abort_paths(self):
        """Aborts pace the schedule identically in both modes."""
        _, serial = self.run_engine("serial", flaky_scope="n1", until=300.0)
        _, disjoint = self.run_engine("disjoint", flaky_scope="n1", until=300.0)
        assert self.schedule_of(serial) == self.schedule_of(disjoint)
        assert serial.history.aborted and disjoint.history.aborted
        assert disjoint.human_alerts_by_scope == serial.human_alerts_by_scope

    def test_universal_read_scope_serializes(self):
        """A non-scope-local invariant conservatively blocks concurrency."""
        system = build_nodes(2)
        checker = ConstraintChecker(bindings={"maxLatency": 2.0})
        checker.add_source(
            "g",
            "forall n : NodeT in system.components | n.latency <= maxLatency",
            repair="fix",
        )

        def heal_all(ctx):
            for comp in ctx.system.components_of_type("NodeT"):
                comp.set_property("latency", 1.0)
            ctx.intend("healAll")
            return True

        sim, manager = make_manager(system, checker, concurrency="disjoint")
        manager.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("healAll", heal_all)])
        )
        manager.evaluate()
        assert manager.inflight == 1
        assert manager.peak_inflight == 1


class TestHumanAlertAccounting:
    def make_aborting_engine(self, alert_after=3):
        system = build_nodes(2)
        checker = make_checker()
        sim, manager = make_manager(
            system,
            checker,
            concurrency="disjoint",
            settle_time=5.0,
            failed_repair_cost=1.0,
            alert_after_aborts=alert_after,
        )

        def always_abort(ctx):
            raise RepairAborted("NoServerGroupFound")

        manager.register_strategy(PythonStrategy("fix", always_abort))
        return sim, manager

    def test_alerts_keyed_per_scope_not_per_engine(self):
        """Regression: interleaved aborts on two scopes alert per scope.

        With engine-global accounting, n0's steady abort stream would
        either mask n1's trouble or fire spuriously early; per-scope
        counts attribute every alert to the scope that earned it.
        """
        sim, manager = self.make_aborting_engine(alert_after=3)
        drive(sim, manager, until=40.0)
        aborted = [r for r in manager.history if not r.committed]
        scopes = {r.scope for r in aborted}
        assert scopes == {"n0", "n1"}  # both scopes kept aborting
        per_scope_aborts = {
            scope: len([r for r in aborted if r.scope == scope])
            for scope in scopes
        }
        assert min(per_scope_aborts.values()) >= 3
        # every scope crossed the threshold on its own count
        assert manager.human_alerts_by_scope["n0"] >= 1
        assert manager.human_alerts_by_scope["n1"] >= 1
        assert manager.human_alerts == sum(manager.human_alerts_by_scope.values())
        alerts = manager.trace.select("repair.human_alert")
        assert {rec.data["scope"] for rec in alerts} == {"n0", "n1"}

    def test_serial_engine_keeps_per_scope_alerts_too(self):
        system = build_nodes(1)
        checker = make_checker()
        sim, manager = make_manager(
            system,
            checker,
            settle_time=1.0,
            failed_repair_cost=0.5,
            alert_after_aborts=2,
        )

        def always_abort(ctx):
            raise RepairAborted("ModelError")

        manager.register_strategy(PythonStrategy("fix", always_abort))
        drive(sim, manager, until=10.0)
        assert manager.human_alerts >= 1
        assert manager.human_alerts_by_scope.get("n0") == manager.human_alerts


class TestStrategyOutcomes:
    def test_aborting_strategy_settles_its_scope_only(self):
        system = build_nodes(2)
        checker = make_checker()
        sim, manager = make_manager(
            system,
            checker,
            concurrency="disjoint",
            settle_time=20.0,
            failed_repair_cost=2.0,
        )
        calls = []

        def fix_or_abort(ctx):
            target = ctx.bindings["__strategy_args__"][0]
            calls.append(target.name)
            if target.name == "n0":
                raise RepairAborted("NoServerGroupFound")
            target.set_property("latency", 1.0)
            ctx.intend("heal", target=target.name)
            return RepairOutcome(True, "fix", ["t"], "t")

        manager.register_strategy(PythonStrategy("fix", fix_or_abort))
        manager.evaluate()
        # both scopes were attempted in the same evaluation
        assert calls == ["n0", "n1"]
        sim.run(until=15.0)
        history = {r.scope: r for r in manager.history}
        assert not history["n0"].committed
        assert history["n1"].committed


# ---------------------------------------------------------------------------
# the reservation ledger
# ---------------------------------------------------------------------------


def assert_ledger_consistent(manager):
    """The ledger is the multiset of footprints held by ``_inflight`` and
    ``_settling``, and answers "free?" like the linear overlap scan.
    Returns the number of reservations held."""
    held = [entry.footprint for entry in manager._inflight.values()]
    held += [footprint for _, footprint in manager._settling]
    ledger = manager._reserved
    assert ledger.total == len(held)
    assert ledger.universal == sum(fp.universal for fp in held)
    assert ledger.by_element == Counter(
        name for fp in held if not fp.universal for name in fp.elements
    )
    expiries = [until for until, _ in manager._settling]
    assert expiries == sorted(expiries)
    probes = held + [Footprint.EMPTY, Footprint.UNIVERSAL, Footprint.of(["<nobody>"])]
    probes += [Footprint.of([name]) for name in ledger.by_element]
    for probe in probes:
        taken = any(probe.overlaps(fp) for fp in held)
        assert ledger.is_free(probe) != taken, str(probe)
    return len(held)


#: adapted runs whose engines between them take every lifecycle path but the
#: conflict abort (the seeded mix below covers that one)
LEDGER_SCENARIOS = ["multi_tenant", "multi_tenant_sharded", "grid_site"]


class TestReservationLedger:
    @pytest.mark.parametrize("name", LEDGER_SCENARIOS)
    def test_ledger_matches_reservations_after_every_step(self, name, monkeypatch):
        experiment = scenario_builder(name)(api.RunConfig.adapted(name))
        managers = experiment.build().managers
        step = Simulator.step
        peak = [0]

        def checked_step(sim):
            alive = step(sim)
            for manager in managers:
                peak[0] = max(peak[0], assert_ledger_consistent(manager))
            return alive

        monkeypatch.setattr(Simulator, "step", checked_step)
        experiment.run()
        # per engine: the shards' and grid_site's engines are serial
        assert peak[0] >= (2 if name == "multi_tenant" else 1)
        if name == "grid_site":  # the resilience paths release and re-reserve
            stats = managers[0].repair_stats()
            assert stats["timeouts"] and stats["retries"] and stats["quarantines"]

    @pytest.mark.parametrize("settle_time", [20.0, 0.0])
    @pytest.mark.parametrize("concurrency", ["disjoint", "serial"])
    def test_ledger_survives_a_seeded_lifecycle_mix(self, concurrency, settle_time):
        rng = random.Random(15)
        nodes = 10
        system = build_nodes(nodes, latency=1.0)
        sim = Simulator()

        class MoodyTranslator:
            """Completes, fails or hangs, as the seed decides."""

            def execute(self, intents, on_done=None):
                roll = rng.random()
                if roll < 0.15:
                    return  # hung effector: only the deadline ends it
                error = "EffectorRaise:heal" if roll < 0.40 else None
                sim.schedule(rng.uniform(0.5, 8.0), on_done, error)

        def script(ctx):
            target = ctx.bindings["__strategy_args__"][0]
            if rng.random() < 0.10:
                return False  # strategy-stage abort
            target.set_property("latency", 1.0)
            if rng.random() < 0.35:  # a write outside the admission footprint
                other = ctx.system.component(f"n{rng.randrange(nodes)}")
                other.set_property("touched", True)
            ctx.intend("heal", target=target.name)
            return True

        _, manager = make_manager(
            system,
            make_checker(),
            sim=sim,
            translator=MoodyTranslator(),
            concurrency=concurrency,
            settle_time=settle_time,
            max_concurrent_repairs=4,
            repair_timeout=12.0,
            retry_policy=RetryPolicy(max_attempts=3, backoff=2.0, seed=15),
            quarantine_policy=QuarantinePolicy(after_failures=1, period=10.0),
        )
        manager.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("heal", script)])
        )

        def tick():
            for _ in range(rng.randrange(0, 3)):
                victim = system.component(f"n{rng.randrange(nodes)}")
                victim.set_property("latency", 5.0)
            manager.evaluate()
            if sim.now < 600.0:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        peak = 0
        while sim.step():
            peak = max(peak, assert_ledger_consistent(manager))
        assert not manager.busy
        stats = manager.repair_stats()
        assert stats["timeouts"] and stats["retries"] and stats["quarantines"]
        assert len(manager.history.committed) > 10
        if concurrency == "disjoint":
            assert peak > 1 and stats["conflicts"]
