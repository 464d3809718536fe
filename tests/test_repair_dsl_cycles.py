"""A DSL repair leaves nothing for the cyclic collector.

Every repair the engine runs builds a context, a transaction, tactic
callables and — on every path but a plain commit — an exception.  None of
that may end up in a reference cycle: a plane that repairs all day would
otherwise hand the collector a pile of frames and tracebacks per repair
(the cost the collector's full passes make visible on the ``storm_1k``
benchmark).  Two causes are pinned here: an exception raised through a
helper that holds it in a local of the frame its own traceback holds,
and tactic callables that capture the context whose function table
stores them.

The model is cyclic by design (an element's ``system`` back-pointer), so
the plane stays alive while the collector runs: what it finds is what the
repairs left behind, and that must be nothing.
"""

import gc

import pytest

from repro.acme.system import ArchSystem
from repro.constraints.invariants import ConstraintChecker
from repro.repair.dsl import parse_repair_dsl
from repro.repair.dsl.interp import build_strategies
from repro.repair.engine import ArchitectureManager
from repro.sim import Simulator

DSL = """
invariant r : latency <= 2.0 ! -> fix(r);

strategy fix(node : NodeT) = {
    if (node.mode == 0) {
        if (heal(node)) {
            commit repair;
        }
    }
    if (node.mode == 1) {
        return false;
    }
    if (node.mode == 2) {
        abort Refused;
    }
}

tactic heal(n : NodeT) : boolean = {
    return true;
}
"""

#: ``mode`` property -> (the strategy's path, the record's abort reason)
PATHS = {
    0: ("committed", None),
    1: ("returned_false", "StrategyReturnedFalse"),
    2: ("abort", "Refused"),
    3: ("no_commit", "NoCommit"),
}


def build(modes):
    """A plane with one violated ``NodeT`` per entry of ``modes``."""
    document = parse_repair_dsl(DSL)
    system = ArchSystem("S")
    for i, mode in enumerate(modes):
        node = system.new_component(f"n{i}", ["NodeT"])
        node.set_property("latency", 5.0)
        node.set_property("mode", mode)
    sim = Simulator()
    checker = ConstraintChecker()
    for decl in document.invariants:
        checker.add_source(
            decl.name, decl.expression, scope_type="NodeT", repair=decl.strategy
        )
    manager = ArchitectureManager(
        sim, system, checker, concurrency="disjoint", max_concurrent_repairs=8
    )
    for strategy in build_strategies(document).values():
        manager.register_strategy(strategy)
    return sim, manager


def repair_once(sim, manager):
    manager.evaluate()
    sim.run(until=sim.now + 100.0)


@pytest.mark.parametrize("mode", sorted(PATHS), ids=[p[0] for p in PATHS.values()])
def test_a_repair_leaves_no_cycle(mode):
    repair_once(*build([mode]))  # imports and one-off caches
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sim, manager = build([mode] * 3)
        repair_once(sim, manager)
        found = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    records = manager.history
    assert len(records) == 3
    assert {(r.committed, r.abort_reason) for r in records} == {
        (mode == 0, PATHS[mode][1])
    }
    assert found == 0
