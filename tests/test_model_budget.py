"""What the model costs to build and to hold — counted, not timed.

``setup_s`` and ``peak_rss_mb`` are two of the whole-plane benchmark's
four end-to-end metrics, and both are made of objects: CPython starts a
young collection every 700 net allocations of collector-tracked objects
and a full one after 11 x 11 of those, so a build that allocates a
closure, a cell, a defaults tuple and a listener list per element (the
``forward`` wiring until d45de41: 60 tracked objects and 7.5 KB per pool
for the model alone) spends a third of its time inside the collector and
the plane carries the objects for good.

So, as in ``test_report_path.py::TestAllocationBudget``, this is a budget
and not a benchmark: tracked objects per pool and ``tracemalloc`` bytes
per pool, for the model alone and for the plane built on it, each 10 %
above what CPython 3.11 measures (the comment beside each number), and
no function, cell or list per element at all.  Before adding a field, a
callback or a container per element, count it here.
"""

import dataclasses
import gc
import sys
import tracemalloc
from collections import Counter

import pytest

from repro.acme.elements import Element
from repro.acme.sharding import ShardedArchSystem
from repro.repair.dsl import parse_repair_dsl
from repro.repair.dsl.interp import build_strategies
from repro.runtime import AdaptationRuntime
from repro.runtime.sharding import ShardingSpec, resolve_shard_key
from repro.sim.kernel import Simulator
from repro.styles.multi_tenant import (
    MULTI_TENANT_DSL,
    build_multi_tenant_family,
    build_multi_tenant_model,
)
from test_report_path import BATCH, _PlaneApp, plane_spec

POOLS = 200
#: gateway + per pool: pool, route, two ports, two roles
ELEMENTS = 1 + 6 * POOLS
#: the whole-plane benchmark's sharded workload
SHARDS = 4


def held_by(build):
    """``(tracked objects, traced bytes, objects by type name)`` that one
    ``build()`` leaves behind while its result is alive."""
    build()  # imports, interned strings, one-off caches
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # a pass in the middle would only untrack tuples early
    try:
        before = {id(obj) for obj in gc.get_objects()}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            built = build()
            traced = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        gc.collect()
        fresh = [obj for obj in gc.get_objects() if id(obj) not in before]
        del before
    finally:
        if was_enabled:
            gc.enable()
    assert built is not None
    return len(fresh), traced, Counter(type(obj).__name__ for obj in fresh)


def build_model():
    tenants = [f"T{i}" for i in range(POOLS)]
    family = build_multi_tenant_family()
    return lambda: build_multi_tenant_model("Tenancy", tenants, 2, 2, family=family)


def build_plane(shards=0):
    app = _PlaneApp(POOLS)
    # the whole-plane benchmark's instruments: two probes and two gauges per pool
    spec = plane_spec(app.tenants, ("latency", "utilization"), BATCH)
    if shards:
        sharding = ShardingSpec(shards=shards, key="numeric_suffix")
        spec = dataclasses.replace(spec, sharding=sharding)

    def build():
        runtime = AdaptationRuntime(Simulator(), app, spec)
        runtime.start()
        return runtime

    return build


@pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="counts CPython's gc-tracked objects"
)
class TestBuildAndAtRestBudget:
    def test_the_model_alone(self):
        tracked, traced, kinds = held_by(build_model())
        # measured 24.1 objects and 3 392 B per pool (60.1 and 7 514 before)
        assert tracked / POOLS <= 26.5, kinds.most_common(8)
        assert traced / POOLS <= 3730, traced / POOLS
        # 7 of the 24 are the change log's entries; what is left is the
        # elements, their properties and the dicts that hold them
        assert kinds["Property"] == 5 * POOLS + 1
        elements = ("Port", "Role", "Component", "Connector")
        assert sum(kinds[kind] for kind in elements) == ELEMENTS

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="3.10 tracks a __dict__ per plain instance"
    )
    def test_the_plane_built_on_it(self):
        tracked, traced, kinds = held_by(build_plane())
        # measured 48.9 objects and 8 286 B per pool (85.0 and 12 313 before)
        assert tracked / POOLS <= 53.8, kinds.most_common(12)
        assert traced / POOLS <= 9100, traced / POOLS

    @pytest.mark.parametrize("build", [build_model, build_plane])
    def test_nothing_per_element_but_the_element(self, build):
        _, _, kinds = held_by(build())
        # a handful per plane (operators): never one per element
        allowance = 12
        if build is build_plane:
            # ... and the repair script, lowered to closures when the plane
            # is built: what the script alone holds, whatever the plane's size
            script = parse_repair_dsl(MULTI_TENANT_DSL)
            _, _, lowered = held_by(lambda: build_strategies(script))
            allowance += lowered["function"] + lowered["cell"]
            assert allowance < POOLS
        assert kinds["function"] + kinds["cell"] <= allowance, kinds
        # type ascriptions are shared
        assert kinds["set"] + kinds["frozenset"] <= 12, kinds
        if build is build_model:
            assert kinds["list"] <= 12, kinds  # no listener list nobody asked for


class TestShardedBuild:
    """Partitioning moves the model's elements into the shards: a sharded
    plane is the same model plus a constant per shard, not a second copy
    (a copy would be ``ELEMENTS`` more constructions, 3.4 KB per pool
    allocated while building)."""

    def test_partition_constructs_no_element(self, monkeypatch):
        constructed = []
        init = Element.__init__

        def counting(self, *args, **kwargs):
            constructed.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Element, "__init__", counting)
        model = build_model()()
        assert len(constructed) == ELEMENTS
        ShardedArchSystem.partition(model, SHARDS, resolve_shard_key("numeric_suffix"))
        assert len(constructed) == ELEMENTS
        build_plane(SHARDS)()
        assert len(constructed) == 2 * ELEMENTS  # its own model, built once

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info < (3, 11),
        reason="counts CPython 3.11's gc-tracked objects",
    )
    def test_a_shard_costs_a_constant_not_a_model(self):
        script = parse_repair_dsl(MULTI_TENANT_DSL)
        script_objects, script_bytes, _ = held_by(lambda: build_strategies(script))
        flat_objects, flat_bytes, _ = held_by(build_plane())
        objects, traced, kinds = held_by(build_plane(SHARDS))
        # each shard has its own engine, checker, updater and lowered script:
        # measured 340 objects a shard (291 of them the script), none per pool
        assert objects <= flat_objects + SHARDS * (script_objects + 100), kinds
        # bytes allocated while building (the source model, garbage once
        # partitioned, is still in them): measured 32 KB a shard and 200 B
        # a pool (the assignment) over the unsharded build; 705 KB when
        # partition rebuilt every element
        assert traced <= flat_bytes + SHARDS * (script_bytes + 16_000) + POOLS * 400
