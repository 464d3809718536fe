"""Candidate-driven admission against the scan it replaced.

``ArchitectureManager.evaluate`` visits only candidates: violations that
newly entered the violated set and the waiters the reservation ledger
released; a blocked violation is parked on its blocker.  The scan it
replaced — every violation, its read footprint rebuilt and the ledger
asked again, at every evaluation — is ``reference.ScanAdmissionManager``.

Each case builds two identical worlds, one per engine, from one seed and
steps their simulators in lockstep.  The script covers both violation
policies, both concurrency policies, a capacity below the number of
violations, ``settle_time`` 0 and > 0, a quarantine policy, a retry
policy with a repair deadline, an invariant with no strategy, an
invariant whose evaluation errs on some scopes, a whole-model invariant
(a universal footprint), writes outside the admission footprint
(conflict aborts) and new components (a new checker session).  After
every step the two histories, the trace ``(time, category)`` lists and
``repair_stats()`` must be equal.  The script's reach is checked over
all cases at once, and one hand-built case parks a violation on a scope
that a failing repair then puts in quarantine.
"""

import random

import pytest
from reference import ScanAdmissionManager

from repro.acme.system import ArchSystem
from repro.constraints import ConstraintChecker
from repro.repair import ArchitectureManager, FirstSuccessStrategy, PythonTactic
from repro.repair.resilience import QuarantinePolicy, RetryPolicy
from repro.sim import Simulator

NODES = 12
HORIZON = 400.0


class MoodyTranslator:
    """Completes, fails or hangs, as the seed decides."""

    def __init__(self, sim, rng):
        self.sim = sim
        self.rng = rng

    def execute(self, intents, on_done=None):
        roll = self.rng.random()
        if roll < 0.1:
            return  # hung effector: only the deadline ends it
        error = "EffectorRaise:heal" if roll < 0.3 else None
        self.sim.schedule(self.rng.uniform(0.5, 8.0), on_done, error)


def world(engine, seed, concurrency, policy, settle_time):
    """One seeded system, checker and engine, driven each second."""
    rng = random.Random(seed)
    sim = Simulator()
    system = ArchSystem("S")
    for i in range(NODES):
        comp = system.new_component(f"n{i}", ["NodeT"])
        comp.set_property("latency", 1.0)
        comp.set_property("load", 0.0)
        if i % 3:  # the others err on invariant "e" until probed
            comp.set_property("probe", 1.0)
    checker = ConstraintChecker(bindings={"maxLatency": 2.0})
    checker.add_source("r", "latency <= maxLatency", scope_type="NodeT", repair="fix")
    checker.add_source("e", "probe >= 0", scope_type="NodeT", repair="fix")
    checker.add_source("u", "load <= 10", scope_type="NodeT", repair="nobody")
    checker.add_source(
        "g", "forall n : NodeT in self.components | n.latency <= 50", repair="calm"
    )
    manager = engine(
        sim,
        system,
        checker,
        translator=MoodyTranslator(sim, rng),
        concurrency=concurrency,
        violation_policy=policy,
        settle_time=settle_time,
        max_concurrent_repairs=2,
        repair_timeout=12.0,
        retry_policy=RetryPolicy(max_attempts=3, backoff=2.0, seed=seed),
        quarantine_policy=QuarantinePolicy(after_failures=1, period=30.0),
    )

    def heal(ctx):
        target = ctx.bindings["__strategy_args__"][0]
        if rng.random() < 0.1:
            return False  # strategy-stage abort
        target.set_property("latency", 1.0)
        if target.get_property("probe", 0.0) < 0:
            target.set_property("probe", 1.0)
        if rng.random() < 0.3:  # a write outside the admission footprint
            other = ctx.system.component(f"n{rng.randrange(NODES)}")
            other.set_property("touched", rng.random())
        ctx.intend("heal", target=target.name)
        return True

    def calm(ctx):
        for comp in ctx.system.components:
            if comp.get_property("latency") > 50:
                comp.set_property("latency", 1.0)
        ctx.intend("calm")
        return True

    for name, script in (("fix", heal), ("calm", calm)):
        tactic = PythonTactic(script.__name__, script)
        manager.register_strategy(FirstSuccessStrategy(name, [tactic]))

    def tick():
        for _ in range(rng.randrange(0, 4)):
            victim = rng.choice(system.components)
            roll = rng.random()
            if roll < 0.03:  # structural: the checker starts a new session
                comp = system.new_component(f"x{len(system.components)}", ["NodeT"])
                comp.set_property("latency", 9.0)
                comp.set_property("load", 0.0)
                comp.set_property("probe", 1.0)
            elif roll < 0.6:
                victim.set_property("latency", rng.choice([3.0, 5.0, 9.0]))
            elif roll < 0.7:
                victim.set_property("latency", 60.0)
            elif roll < 0.85:
                victim.set_property("load", rng.choice([0.0, 20.0]))
            else:  # both scope-local invariants of one node at once
                victim.set_property("probe", rng.choice([-1.0, 1.0]))
                victim.set_property("latency", 5.0)
        manager.evaluate()
        if sim.now < HORIZON:
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    return sim, manager


def recorded(manager):
    """The engine's trace as ``(time, category)``, kept as it grows."""
    seen = []
    manager.trace.subscribe(lambda record: seen.append((record.time, record.category)))
    return seen


def as_dicts(history, start=0):
    return [record.as_dict() for record in list(history)[start:]]


SEEDS = [11, 47]
CASES = [
    (concurrency, policy, settle_time)
    for concurrency in ("disjoint", "serial")
    for policy in ("first", "worst")
    for settle_time in (0.0, 20.0)
]


def assert_lockstep(engine, reference_engine, build):
    """Step ``build(engine)`` and ``build(reference_engine)`` together,
    comparing after every step; returns the production engine."""
    sim, manager = build(engine)
    ref_sim, reference = build(reference_engine)
    seen, ref_seen = recorded(manager), recorded(reference)
    histories = traces = 0
    while True:
        alive = sim.step()
        assert ref_sim.step() == alive
        assert sim.now == ref_sim.now
        assert len(manager.history) == len(reference.history)
        if len(manager.history) != histories:
            assert as_dicts(manager.history, histories) == as_dicts(
                reference.history, histories
            )
            histories = len(manager.history)
        assert len(seen) == len(ref_seen)
        assert seen[traces:] == ref_seen[traces:]
        traces = len(seen)
        assert manager.repair_stats() == reference.repair_stats()
        if not alive:
            break
    assert as_dicts(manager.history) == as_dicts(reference.history)
    return manager


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("concurrency,policy,settle_time", CASES)
def test_candidates_admit_like_the_scan(seed, concurrency, policy, settle_time):
    assert_lockstep(
        ArchitectureManager,
        ScanAdmissionManager,
        lambda engine: world(engine, seed, concurrency, policy, settle_time),
    )


def test_a_quarantine_reaches_a_parked_violation():
    """``(e, n0)`` waits on ``n0`` while ``(r, n0)``'s repair fails into a
    quarantine of ``n0``: from then on every evaluation counts both as
    skipped, as the scan does, although ``n0`` is still settling."""

    class FailingTranslator:
        def __init__(self, sim):
            self.sim = sim

        def execute(self, intents, on_done=None):
            self.sim.schedule(1.0, on_done, "EffectorRaise:heal")

    def build(engine):
        sim = Simulator()
        system = ArchSystem("S")
        node = system.new_component("n0", ["NodeT"])
        node.set_property("latency", 5.0)
        node.set_property("probe", -1.0)
        checker = ConstraintChecker(bindings={"maxLatency": 2.0})
        checker.add_source("r", "latency <= maxLatency", "NodeT", "fix")
        checker.add_source("e", "probe >= 0", "NodeT", "fix")
        manager = engine(
            sim,
            system,
            checker,
            translator=FailingTranslator(sim),
            concurrency="disjoint",
            settle_time=20.0,
            quarantine_policy=QuarantinePolicy(after_failures=1, period=30.0),
        )

        def heal(ctx):
            target = ctx.bindings["__strategy_args__"][0]
            target.set_property("latency", 1.0)
            target.set_property("probe", 1.0)
            ctx.intend("heal", target=target.name)
            return True

        manager.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("heal", heal)])
        )

        def tick():
            manager.evaluate()
            if sim.now < 40.0:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        return sim, manager

    manager = assert_lockstep(ArchitectureManager, ScanAdmissionManager, build)
    stats = manager.repair_stats()
    assert stats["quarantines"] and stats["quarantine_skips"] >= 2 * 19


def test_the_script_reaches_every_path():
    """Over the cases above: every lifecycle path the comparison covers."""
    totals, categories = {}, set()
    for concurrency, policy, settle_time in CASES:
        for seed in SEEDS:
            sim, manager = world(
                ArchitectureManager, seed, concurrency, policy, settle_time
            )
            seen = recorded(manager)
            sim.run()
            for key, value in manager.repair_stats().items():
                totals[key] = max(totals.get(key, 0), value)
            categories |= {category for _, category in seen}
    for key in ("retries", "timeouts", "quarantines", "quarantine_skips", "conflicts"):
        assert totals[key], key
    assert totals["peak_inflight"] == 2
    assert {
        "constraint.error",
        "constraint.violation.unhandled",
        "repair.abort",
        "repair.conflict",
        "repair.retry_skip",
        "repair.human_alert",
    } <= categories
