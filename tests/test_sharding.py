"""Sharded control plane: spec validation, model partition, bus routing,
and the coordinator's aggregate view over shard-local repairs."""

import pytest

import repro.bus.sharding as bus_sharding
from repro.acme.sharding import ShardedArchSystem
from repro.acme.system import ArchSystem
from repro.bus.messages import Message
from repro.bus.sharding import ShardedEventBus
from repro.constraints.invariants import ConstraintChecker
from repro.errors import UnknownElementError
from repro.repair import (
    ArchitectureManager,
    FirstSuccessStrategy,
    PythonTactic,
    ShardCoordinator,
)
from repro.runtime.sharding import (
    ShardingSpec,
    register_shard_key,
    resolve_shard_key,
    shard_key_names,
)
from repro.sim import Simulator
from repro.styles.multi_tenant import (
    build_multi_tenant_family,
    build_multi_tenant_model,
)

TRANSLATE_COST = 10.0
SETTLE_TIME = 20.0


# ---------------------------------------------------------------------------
# ShardingSpec + shard-key registry
# ---------------------------------------------------------------------------
class TestShardingSpec:
    def test_defaults_are_one_shard(self):
        assert ShardingSpec() == ShardingSpec(shards=1, key="hash")

    def test_one_shard_is_the_off_position(self):
        # no kill switch beside the count: shards=1 is how sharding is off
        with pytest.raises(TypeError, match="enabled"):
            ShardingSpec(shards=4, enabled=False)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shards": -2},
            {"shards": 2.5},
            {"key": ""},
            {"key": 7},
        ],
    )
    def test_invalid_specs_fail_on_construction(self, kwargs):
        with pytest.raises(ValueError, match="invalid sharding spec"):
            ShardingSpec(**kwargs)

    def test_spec_is_frozen_and_hashable(self):
        spec = ShardingSpec(shards=3, key="numeric_suffix")
        with pytest.raises(Exception):
            spec.shards = 4
        assert spec == ShardingSpec(shards=3, key="numeric_suffix")
        assert hash(spec) == hash(ShardingSpec(shards=3, key="numeric_suffix"))

    def test_builtin_keys_registered(self):
        assert "hash" in shard_key_names()
        assert "numeric_suffix" in shard_key_names()

    def test_unknown_key_resolution_fails_with_names(self):
        with pytest.raises(ValueError, match="unknown shard key"):
            resolve_shard_key("no_such_key")

    def test_duplicate_registration_rejected(self):
        register_shard_key("test_sharding_dup", lambda name, shards: 0)
        with pytest.raises(ValueError, match="already registered"):
            register_shard_key("test_sharding_dup", lambda name, shards: 0)

    def test_numeric_suffix_key(self):
        key = resolve_shard_key("numeric_suffix")
        assert key("T7", 3) == 1
        assert key("n12", 5) == 2
        assert key("gateway", 3) is None

    def test_hash_key_is_stable_and_in_range(self):
        key = resolve_shard_key("hash")
        # crc32-based: stable across processes (unlike hash())
        assert key("gateway", 4) == key("gateway", 4)
        for name in ("a", "gateway", "T0", "route_T3"):
            assert 0 <= key(name, 3) < 3


# ---------------------------------------------------------------------------
# Model partition
# ---------------------------------------------------------------------------
def tenancy_model():
    return build_multi_tenant_model(
        "TenancyModel",
        ["T0", "T1", "T2", "T3"],
        pool_size=2,
        min_size=1,
        family=build_multi_tenant_family(),
    )


class TestPartition:
    def test_assignment_follows_key(self):
        model = ShardedArchSystem.partition(
            tenancy_model(), 3, resolve_shard_key("numeric_suffix")
        )
        assert model.shard_count == 3
        assert model.shard_of("T0") == 0
        assert model.shard_of("T1") == 1
        assert model.shard_of("T2") == 2
        assert model.shard_of("T3") == 0  # 3 % 3
        # no digits -> no opinion -> shard 0
        assert model.shard_of("gateway") == 0
        assert model.shard_of("nobody") is None

    def test_connector_follows_first_attached_component(self):
        model = ShardedArchSystem.partition(
            tenancy_model(), 3, resolve_shard_key("numeric_suffix")
        )
        # sorted attachment order puts "T1.ingest" before "gateway.out_T1",
        # so each route connector co-shards with its tenant pool
        for tenant, shard in (("T0", 0), ("T1", 1), ("T2", 2), ("T3", 0)):
            assert model.shard_of(f"route_{tenant}") == shard
            part = model.shard(shard)
            assert part.has_component(tenant)
            assert part.has_connector(f"route_{tenant}")

    def test_cross_links_record_dropped_attachments(self):
        model = ShardedArchSystem.partition(
            tenancy_model(), 3, resolve_shard_key("numeric_suffix")
        )
        # gateway (shard 0) -> route_T1/route_T2 (shards 1/2) span shards;
        # every other attachment materializes inside its shard
        spans = {
            (port, role): (ps, rs) for port, role, ps, rs in model.cross_links
        }
        assert spans == {
            ("gateway.out_T1", "route_T1.gateway"): (0, 1),
            ("gateway.out_T2", "route_T2.gateway"): (0, 2),
        }
        # the co-sharded side of those routes still materialized
        assert model.shard(1).is_attached(
            model.component("T1").port("ingest"),
            model.connector("route_T1").role("tenant"),
        )

    def test_partition_copies_properties_and_invariants(self):
        source = tenancy_model()
        model = ShardedArchSystem.partition(
            source, 3, resolve_shard_key("numeric_suffix")
        )
        for tenant in ("T0", "T1", "T2", "T3"):
            pool = model.component(tenant)
            assert pool.get_property("size") == 2
            assert pool.get_property("minSize") == 1
            assert pool.declares_type("TenantPoolT")
        assert model.component("gateway").get_property("tenants") == 4
        for part in model.shards:
            assert part.invariant_sources == source.invariant_sources
            assert part.family == source.family

    def test_partition_moves_elements(self):
        source = tenancy_model()
        pool = source.component("T1")
        structure_before = source.structure_epoch
        model = ShardedArchSystem.partition(
            source, 2, resolve_shard_key("numeric_suffix")
        )
        # the source's own objects, now owned by their shard ...
        assert model.component("T1") is pool
        for k, part in enumerate(model.shards):
            for comp in part.components:
                assert comp.system is part and model.shard_of(comp.name) == k
                assert all(port.system is part for port in comp.ports)
            for conn in part.connectors:
                assert conn.system is part and model.shard_of(conn.name) == k
                assert all(role.system is part for role in conn.roles)
        # ... and the source is empty, not a stale graph
        assert source.components == source.connectors == source.attachments == []
        assert source.structure_epoch > structure_before
        assert source.dirty_elements_since(structure_before) is None
        # a write through a moved element lands in its shard's log only
        source_epoch, part = source.epoch, model.shard(1)
        part_epoch = part.epoch
        pool.set_property("size", 9)
        assert part.dirty_elements_since(part_epoch) == [pool]
        assert source.epoch == source_epoch
        assert source.dirty_elements_since(source_epoch) == []

    def test_facade_lookups(self):
        model = ShardedArchSystem.partition(
            tenancy_model(), 3, resolve_shard_key("numeric_suffix")
        )
        assert [c.name for c in model.components] == [
            "T0", "T1", "T2", "T3", "gateway",
        ]
        assert [c.name for c in model.connectors] == [
            "route_T0", "route_T1", "route_T2", "route_T3",
        ]
        assert len(model.components_of_type("TenantPoolT")) == 4
        assert model.has_component("T2")
        assert not model.has_component("route_T2")
        assert model.has_connector("route_T2")
        with pytest.raises(UnknownElementError):
            model.component("nobody")
        with pytest.raises(UnknownElementError):
            model.connector("T1")

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="shard count"):
            ShardedArchSystem.partition(
                tenancy_model(), 0, resolve_shard_key("hash")
            )

    def test_one_shard_is_the_source_itself(self):
        source = tenancy_model()
        epoch = source.structure_epoch
        model = ShardedArchSystem.partition(source, 1, resolve_shard_key("hash"))
        assert model.shards == [source] and model.name == source.name
        assert source.structure_epoch == epoch  # nothing moved
        assert set(model.assignment.values()) == {0}
        assert len(model.assignment) == 9 and model.cross_links == ()

    def test_names_added_after_the_partition_are_looked_up_on_shard_zero(self):
        model = ShardedArchSystem.partition(
            tenancy_model(), 2, resolve_shard_key("numeric_suffix")
        )
        model.shard(0).new_component("late0")
        model.shard(1).new_component("late1")
        assert model.has_component("late0") and model.component("late0")
        assert model.shard_of("late0") is None  # the assignment never changes
        # where the buses would route it, too: shard 0
        assert not model.has_component("late1")
        with pytest.raises(UnknownElementError):
            model.component("late1")


# ---------------------------------------------------------------------------
# Sharded event bus
# ---------------------------------------------------------------------------
def make_bus(shards=2):
    sim = Simulator()
    homes = {"T0": 0, "T1": 1}
    bus = ShardedEventBus(sim, shards, homes.get)
    return sim, bus


class TestShardedBus:
    def test_literal_publish_and_subscribe_meet_on_home_shard(self):
        sim, bus = make_bus()
        got = []
        sub = bus.subscribe("gauge.latency.T1", got.append)
        # literal: home shard only, under the child's own handle
        assert bus.shard(1).subscriptions == [sub]
        bus.publish_subject("gauge.latency.T1", value=1.5)
        sim.run(until=1.0)
        assert len(got) == 1
        assert got[0].attributes["value"] == 1.5
        assert bus.shard(1).published == 1
        assert bus.shard(0).published == 0

    def test_wildcard_subscriber_sees_each_message_exactly_once(self):
        sim, bus = make_bus()
        got = []
        sub = bus.subscribe("gauge.latency.*", got.append)
        assert len(sub.parts) == 2  # wildcard: registered everywhere
        bus.publish_subject("gauge.latency.T0", value=1.0)
        bus.publish_subject("gauge.latency.T1", value=2.0)
        sim.run(until=1.0)
        # publish routes to exactly one child, so no duplicates
        assert sorted(m.subject for m in got) == [
            "gauge.latency.T0",
            "gauge.latency.T1",
        ]

    def test_unknown_target_lands_on_shard_zero(self):
        sim, bus = make_bus()
        got = []
        bus.subscribe("probe.latency.mystery", got.append)
        bus.publish_subject("probe.latency.mystery", value=3.0)
        sim.run(until=1.0)
        assert len(got) == 1
        assert bus.shard(0).published == 1

    def test_facade_unsubscribe(self):
        sim, bus = make_bus()
        got = []
        sub = bus.subscribe("gauge.>", got.append)
        bus.publish_subject("gauge.latency.T0", value=1.0)
        sim.run(until=1.0)
        assert sub.active
        bus.unsubscribe(sub)
        assert not sub.active
        bus.publish_subject("gauge.latency.T0", value=2.0)
        sim.run(until=2.0)
        assert len(got) == 1

    def test_unsubscribe_leaves_sibling_shards_alone(self):
        """Child buses number subscriptions independently, so both
        literals below are ``sub-1`` on their own shard: dropping one
        must not touch the other's registration or in-flight delivery."""
        sim = Simulator()
        bus = ShardedEventBus(sim, 2, {"T0": 0, "T1": 1}.get)
        got0, got1 = [], []
        sub0 = bus.subscribe("probe.x.T0", got0.append)
        sub1 = bus.subscribe("probe.x.T1", got1.append)
        assert sub0.sid == sub1.sid
        bus.publish_subject("probe.x.T1", value=1.0)  # in flight
        bus.unsubscribe(sub0)
        assert not sub0.active and sub1.active
        assert bus.subscriptions == [sub1]
        bus.publish_subject("probe.x.T0", value=2.0)
        bus.publish_subject("probe.x.T1", value=3.0)
        sim.run(until=1.0)
        assert got0 == []
        assert [m["value"] for m in got1] == [1.0, 3.0]
        bus.unsubscribe(sub1)
        assert bus.subscriptions == []
        assert len(bus.shard(1)._index) == 0  # no ghost left in the trie
        assert bus.publish_subject("probe.x.T1", value=4.0) == 0

    def test_raw_part_unsubscribe_only_reaches_its_owner(self):
        sim, bus = make_bus()
        sub1 = bus.subscribe("probe.x.T1", lambda m: None)
        sub0 = bus.subscribe("probe.x.*", lambda m: None)
        assert sub0.parts[0].sid == sub1.sid  # "sub-1" on shards 0 and 1
        bus.unsubscribe(sub0.parts[0])
        assert bus.subscriptions == [sub1, sub0.parts[1]]

    def test_stats_rollup(self):
        sim, bus = make_bus()
        bus.subscribe("gauge.>", lambda m: None)
        bus.publish_subject("gauge.latency.T0", value=1.0)
        bus.publish_subject("gauge.latency.T1", value=2.0)
        sim.run(until=1.0)
        stats = bus.stats()
        assert stats["published"] == 2
        assert stats["delivered"] == 2
        per_shard = bus.shard_stats()
        assert [s["published"] for s in per_shard] == [1, 1]

    def test_each_subject_is_routed_once(self, monkeypatch):
        asked = []

        def shard_of(name):
            asked.append(name)
            return {"T0": 0, "T1": 1}.get(name)

        bus = ShardedEventBus(Simulator(), 2, shard_of)
        for value in range(3):
            bus.publish_subject("gauge.latency.T1", value=value)
            bus.publish(Message("gauge.latency.T0", {"value": value}))
        assert asked == ["T1", "T0"]
        assert [bus.shard(k).published for k in (0, 1)] == [3, 3]
        # a subject the child buses refuse is refused here, and not kept
        with pytest.raises(ValueError, match="malformed subject"):
            bus.publish_subject("gauge..T1", value=1.0)
        assert "gauge..T1" not in bus._routes
        # cleared rather than grown past the cap
        monkeypatch.setattr(bus_sharding, "ROUTE_MEMO_CAP", 2)
        bus.publish_subject("probe.latency.T1", value=1.0)
        assert bus._routes == {"probe.latency.T1": bus.shard(1)}
        assert bus.shard(1).published == 4

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="shard count"):
            ShardedEventBus(Simulator(), 0, lambda name: 0)


# ---------------------------------------------------------------------------
# Shard coordinator
# ---------------------------------------------------------------------------
class FixedCostTranslator:
    def __init__(self, sim, delay):
        self.sim = sim
        self.delay = delay

    def execute(self, intents, on_done=None):
        self.sim.schedule(self.delay, on_done or (lambda: None))


def heal(ctx):
    target = ctx.bindings["__strategy_args__"][0]
    target.set_property("latency", 1.0)
    ctx.intend("heal", target=target.name)
    return True


def build_coordinator(
    shards=3,
    per_shard=2,
    violated=True,
    settle_time=SETTLE_TIME,
):
    """bench_x5-style rig: ``shards * per_shard`` NodeT components sharded
    by numeric suffix, one serial engine per shard, one coordinator."""
    system = ArchSystem("Synthetic")
    for i in range(shards * per_shard):
        comp = system.new_component(f"n{i}", ["NodeT"])
        comp.set_property("latency", 5.0 if violated else 1.0)
    sim = Simulator()
    model = ShardedArchSystem.partition(
        system, shards, resolve_shard_key("numeric_suffix")
    )
    managers, checkers = [], []
    for k in range(shards):
        checker = ConstraintChecker(bindings={"maxLatency": 2.0})
        checker.add_source(
            "r", "latency <= maxLatency", scope_type="NodeT", repair="fix"
        )
        manager = ArchitectureManager(
            sim,
            model.shard(k),
            checker,
            translator=FixedCostTranslator(sim, TRANSLATE_COST),
            settle_time=settle_time,
        )
        manager.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("heal", heal)])
        )
        managers.append(manager)
        checkers.append(checker)
    coordinator = ShardCoordinator(managers)
    return sim, model, checkers, coordinator


def run_to_quiesce(sim, model, checkers, coordinator, horizon=600.0):
    quiesce = {"at": None}

    def healthy():
        return all(
            not checker.violations(model.shard(k))
            for k, checker in enumerate(checkers)
        )

    def tick():
        coordinator.evaluate()
        if quiesce["at"] is None and not coordinator.busy and healthy():
            quiesce["at"] = sim.now
            return
        sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run(until=horizon)
    return quiesce["at"] if quiesce["at"] is not None else horizon


class TestCoordinatorLocalRepairs:
    def test_shard_local_repairs_never_block_each_other(self):
        """Disjoint violations: peak inflight reaches the shard count."""
        shards = 3
        sim, model, checkers, coordinator = build_coordinator(shards=shards)
        run_to_quiesce(sim, model, checkers, coordinator)
        assert coordinator.peak_inflight >= shards
        history = coordinator.history
        assert len(history) == shards * 2
        assert all(record.committed for record in history)

    def test_quiesce_time_independent_of_shard_count(self):
        """Fixed per-shard load: adding shards must not slow quiesce."""
        times = {
            shards: run_to_quiesce(*build_coordinator(shards=shards))
            for shards in (1, 3)
        }
        assert times[3] == pytest.approx(times[1], abs=2.0)

    def test_aggregate_surface(self):
        shards = 3
        sim, model, checkers, coordinator = build_coordinator(shards=shards)
        run_to_quiesce(sim, model, checkers, coordinator)
        stats = coordinator.repair_stats()
        assert stats["shards"] == shards
        assert stats["peak_inflight"] == coordinator.peak_inflight
        assert coordinator.evaluations == sum(
            manager.evaluations for manager in coordinator.managers
        )
        assert coordinator.constraint_stats["scopes_evaluated"] > 0
        assert not coordinator.busy
        assert coordinator.inflight == 0

    def test_merged_history_is_time_ordered(self):
        sim, model, checkers, coordinator = build_coordinator(shards=3)
        run_to_quiesce(sim, model, checkers, coordinator)
        started = [record.started for record in coordinator.history]
        assert started == sorted(started)

    def test_one_shard_aggregate_is_the_engines_own(self):
        sim, model, checkers, coordinator = build_coordinator(shards=1)
        run_to_quiesce(sim, model, checkers, coordinator)
        [engine] = coordinator.managers
        assert len(engine.history) == 2
        assert coordinator.history is engine.history
        assert coordinator.repair_stats() == engine.repair_stats()
        assert coordinator.repair_stats()["peak_inflight"] == 0  # serial engine
        assert coordinator.peak_inflight == 1  # the rollup's own count differs
        assert coordinator.breakers is engine.breakers

    def test_empty_manager_list_rejected(self):
        with pytest.raises(ValueError, match="at least one manager"):
            ShardCoordinator([])


class TestCoordinatorBusyAndPeak:
    """``busy`` is "any engine busy"; ``evaluate_shard`` evaluates that
    shard's engine, then notes the peak in flight across shards."""

    def test_busy_is_any_engine_busy(self):
        sim, model, checkers, coordinator = build_coordinator(shards=3)
        assert not coordinator.busy
        coordinator.evaluate_shard(1)
        assert [m.busy for m in coordinator.managers] == [False, True, False]
        assert coordinator.busy
        sim.run(until=TRANSLATE_COST + SETTLE_TIME + 1.0)
        assert not any(m.busy for m in coordinator.managers)
        assert not coordinator.busy

    def test_evaluate_shard_notes_the_peak_in_flight(self):
        sim, model, checkers, coordinator = build_coordinator(shards=3)
        assert coordinator.peak_inflight == 0
        coordinator.evaluate_shard(0)
        assert coordinator.peak_inflight == 1
        coordinator.evaluate_shard(2)
        assert coordinator.peak_inflight == 2
        sim.run(until=TRANSLATE_COST + SETTLE_TIME + 1.0)
        coordinator.evaluate_shard(0)  # the next repair: one in flight
        assert coordinator.peak_inflight == 2  # a peak, never lowered

    def test_evaluate_sweeps_every_shard_and_returns_the_first_record(self):
        sim, model, checkers, coordinator = build_coordinator(shards=3)
        first = coordinator.evaluate()
        assert first is not None
        assert [m.evaluations for m in coordinator.managers] == [1, 1, 1]
        assert all(m.busy for m in coordinator.managers)
        assert coordinator.peak_inflight == 3
        # the record is shard 0's: its repair is the one it started
        assert model.shard_of(first.scope) == 0

    def test_a_busy_shard_never_holds_back_its_siblings(self):
        sim, model, checkers, coordinator = build_coordinator(shards=3)
        coordinator.evaluate_shard(0)
        assert coordinator.managers[0].busy
        assert coordinator.evaluate_shard(1) is not None
        assert coordinator.managers[1].busy
        sim.run(until=TRANSLATE_COST + SETTLE_TIME + 1.0)
        committed = [record.scope for record in coordinator.history]
        assert sorted(model.shard_of(name) for name in committed) == [0, 1]

    def test_shard_proxy_evaluates_only_its_shard(self):
        sim, model, checkers, coordinator = build_coordinator(shards=3)
        coordinator.shard_proxy(2).evaluate()
        assert [m.evaluations for m in coordinator.managers] == [0, 0, 1]
        assert coordinator.busy
        assert coordinator.peak_inflight == 1

    @pytest.mark.parametrize("shards", [2, 3, 6])
    def test_final_model_matches_the_one_shard_run(self, shards):
        """Shard-local repairs leave the model as one engine over the
        whole model does: every violation repaired, nothing else written."""
        per_shard = 6 // shards
        reference = build_coordinator(shards=1, per_shard=6)
        sharded = build_coordinator(shards=shards, per_shard=per_shard)
        for sim, model, checkers, coordinator in (reference, sharded):
            run_to_quiesce(sim, model, checkers, coordinator)
        (_, ref_model, _, ref_coordinator) = reference
        (_, model, _, coordinator) = sharded
        for i in range(6):
            assert model.component(f"n{i}").get_property(
                "latency"
            ) == ref_model.component(f"n{i}").get_property("latency")
        assert sorted(r.scope for r in coordinator.history.committed) == sorted(
            r.scope for r in ref_coordinator.history.committed
        )
        assert len(coordinator.history) == len(ref_coordinator.history) == 6

    def test_several_shards_have_no_breaker_rollup(self):
        sim, model, checkers, coordinator = build_coordinator(shards=2)
        assert coordinator.breakers is None

    def test_constraint_stats_sum_over_shards(self):
        sim, model, checkers, coordinator = build_coordinator(shards=3)
        run_to_quiesce(sim, model, checkers, coordinator)
        per_engine = [m.constraint_stats for m in coordinator.managers]
        assert coordinator.constraint_stats == {
            key: sum(stats.get(key, 0) for stats in per_engine)
            for key in set().union(*per_engine)
        }
