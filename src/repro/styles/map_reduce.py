"""A fifth architectural style: map/reduce jobs with a skewed shuffle.

The data-parallel grid workload the ROADMAP asks for: a mapper pool
emits keyed records, the shuffle routes each key-group to one reducer
partition, and reducers drain their partitions.  When the key
distribution is heavy-tailed (Zipf — the real-world "hot key" shape),
one partition receives a disproportionate *share* of the shuffle and
its backlog grows while the other reducers idle: shuffle skew.

All adaptation-relevant state lives on the reducer components:

* ``backlog`` — records queued at this partition;
* ``share`` — this partition's fraction of all queued shuffle work
  (the skew signal; fair share is ``1/partitions``);
* ``keys`` — key-groups currently routed to this partition.

One invariant drives a two-stage repair:

* ``skewedShuffle`` (``share <= maxShare or backlog <= lowBacklog``)
  fires on the hot partition.  The strategy tries ``splitPartition``
  first — reassign the colder half of the partition's key-groups to the
  least-loaded reducer, the structural fix — and falls back to
  ``stealWork`` — migrate half the queued records to the least-loaded
  reducer — when the partition is down to a single (irreducibly hot)
  key-group.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.acme.elements import Component
from repro.acme.family import Family
from repro.acme.system import ArchSystem
from repro.errors import EvaluationError, TacticFailure
from repro.repair.context import RepairContext

__all__ = [
    "build_map_reduce_family",
    "build_map_reduce_model",
    "map_reduce_operators",
    "MAP_REDUCE_DSL",
]


def build_map_reduce_family() -> Family:
    fam = Family("MapReduceFam")
    fam.component_type("MapperPoolT").declare_property("rate", "float", 0.0)
    (
        fam.component_type("ReducerT")
        .declare_property("backlog", "float", 0.0)
        .declare_property("share", "float", 0.0)
        # a count, but declared float: the key-count gauge feeds it
        # through the generic PropertyUpdater, which reports floats
        .declare_property("keys", "float", 1.0)
    )
    fam.connector_type("ShuffleT").declare_property("inFlight", "float", 0.0)
    fam.port_type("EmitT")
    fam.port_type("PartitionT")
    fam.role_type("MapperRoleT")
    fam.role_type("ReducerRoleT")
    return fam


def build_map_reduce_model(
    name: str,
    reducers: Sequence[str],
    keys_per_reducer: Sequence[int],
    family: Optional[Family] = None,
) -> ArchSystem:
    """``mappers --shuffle--> reducer*`` with per-partition key counts."""
    fam = family if family is not None else build_map_reduce_family()
    if len(reducers) != len(keys_per_reducer):
        raise EvaluationError("one key count per reducer is required")
    system = ArchSystem(name, family=fam.name)
    mappers = system.new_component("mappers", ["MapperPoolT"])
    fam.initialize(mappers)
    shuffle = system.new_connector("shuffle", ["ShuffleT"])
    fam.initialize(shuffle)
    src = shuffle.add_role("mappers", {"MapperRoleT"})
    mappers.add_port("emit", {"EmitT"})
    system.attach(mappers.port("emit"), src)
    for reducer, key_count in zip(reducers, keys_per_reducer):
        comp = system.new_component(reducer, ["ReducerT"])
        fam.initialize(comp)
        comp.add_port("partition", {"PartitionT"})
        comp.set_property("keys", int(key_count))
        snk = shuffle.add_role(reducer, {"ReducerRoleT"})
        system.attach(comp.port("partition"), snk)
    return system


def map_reduce_operators() -> Dict[str, Callable[..., Any]]:
    """Style operators: ``split`` a partition's keyspace, ``steal`` work."""

    def _reducer(value: Any, op: str) -> Component:
        if not isinstance(value, Component) or not value.declares_type("ReducerT"):
            raise EvaluationError(f"{op} must target a ReducerT component")
        return value

    def _coldest_peer(ctx: RepairContext, hot: Component) -> Component:
        peers = [
            comp
            for comp in ctx.system.components_of_type("ReducerT")
            if comp.name != hot.name
        ]
        if not peers:
            raise TacticFailure("rebalance needs at least two reducers")
        return min(peers, key=lambda c: (float(c.get_property("backlog")), c.name))

    def op_split(ctx: RepairContext, reducer: Any) -> int:
        hot = _reducer(reducer, "split")
        keys = int(hot.get_property("keys"))
        if keys <= 1:
            raise TacticFailure("split: partition is a single key-group")
        dest = _coldest_peer(ctx, hot)
        moved = keys // 2
        hot.set_property("keys", keys - moved)
        dest.set_property("keys", int(dest.get_property("keys")) + moved)
        # Model estimate until gauges re-measure: the keyspace that left
        # takes (at most) half the partition's future share with it.
        share = float(hot.get_property("share"))
        hot.set_property("share", share / 2.0)
        dest.set_property("share", float(dest.get_property("share")) + share / 2.0)
        ctx.intend("splitPartition", reducer=hot.name, dest=dest.name)
        return moved

    def op_steal(ctx: RepairContext, reducer: Any) -> float:
        hot = _reducer(reducer, "steal")
        backlog = float(hot.get_property("backlog"))
        dest = _coldest_peer(ctx, hot)
        moved = backlog / 2.0
        hot.set_property("backlog", backlog - moved)
        dest.set_property("backlog", float(dest.get_property("backlog")) + moved)
        hot.set_property("share", float(hot.get_property("share")) / 2.0)
        ctx.intend("stealWork", reducer=hot.name, dest=dest.name)
        return moved

    return {"split": op_split, "steal": op_steal}


MAP_REDUCE_DSL = """
invariant k : share <= maxShare or backlog <= lowBacklog
    ! -> rebalanceShuffle(k);

// Structural fix first (split the keyspace), palliative second (steal
// the queued records): a partition whose heat comes from many keys is
// permanently rebalanced by one split; a single irreducibly hot key
// can only be drained by moving its queued work to idle reducers.
strategy rebalanceShuffle(hot : ReducerT) = {
    if (splitPartition(hot)) {
        commit repair;
    } else if (stealWork(hot)) {
        commit repair;
    } else {
        abort CannotRebalance;
    }
}

tactic splitPartition(hot : ReducerT) : boolean = {
    if (hot.share <= maxShare) {
        return false;
    }
    if (hot.keys <= 1) {
        return false;
    }
    hot.split();
    return true;
}

tactic stealWork(hot : ReducerT) : boolean = {
    if (hot.backlog <= lowBacklog) {
        return false;
    }
    hot.steal();
    return true;
}
"""
