"""One plane: the unsharded runtime is the one-shard runtime.

``AdaptationRuntime`` builds one path.  The model is always partitioned
(one shard unless the spec's ``ShardingSpec`` asks for more), and each
per-model part — checker, engine, bus child, updater — is built once per
shard under one ``ShardCoordinator``.

For every registered scenario's default adapted run, the four surfaces a
caller reads — ``summary()``, ``history_dicts()``, ``stats().to_dict()``
and ``fault_stats`` — are pinned to digests captured on the commit before
the two build paths were merged: key for key, in key order.  Two keys were
removed on purpose and are left out of the captured ``summary()``:
``params.sharding.enabled`` of ``multi_tenant_sharded`` (``ShardingSpec``
has no ``enabled`` field any more), and ``params.telemetry`` of
``map_reduce``, ``multi_tenant`` and ``multi_tenant_sharded`` (there is
one telemetry plane, so their params have no switch for it).

When the bus's queued delivery path and the coordinator's cross-shard
commit path were deleted, the digests were captured again on the commit
before the deletion, with only the keys that deletion removed left out:

* ``map_reduce``: ``params.bus_batching``, ``params.bus_queue_policy``
  and ``params.bus_queue_capacity`` of ``summary()``, and the queue
  counters ``{probe,gauge}_batched_subscriptions``, ``_batches``,
  ``_dropped``, ``_stalled``, ``_peak_depth`` and ``_max_batch`` of
  ``counters.bus`` in ``summary()`` and of ``bus`` in ``stats()``;
* ``multi_tenant_sharded``: ``params.sharding.max_lock_shards`` of
  ``summary()``, and ``cross_commits``, ``cross_aborts``,
  ``cross_rejects`` and ``deferrals`` of ``repairs`` in ``stats()``.

``map_reduce``'s two ``*_mean_transit`` values are left out of its
digests as well: the queued path accrued transit as drain time minus
publish time, the one path accrues the scheduled delay, so the means
differ in the last bits.  They are pinned on their own instead, to the
scenario's 0.05 s delivery delay.  The tests after the digests name what
a one-shard plane has to look like for them to hold.

When a retry's re-check stopped forcing a full constraint pass (it reads
the checker's incremental session), four of ``grid_site``'s checker
counters moved: ``full_checks``, ``incremental_checks``,
``scopes_evaluated`` and ``scopes_reused`` of ``constraints`` in
``stats()`` and of ``counters.constraints`` in ``summary()``.  They are
pinned on their own to their new values; the values captured before
stand in for them in the digests, so every other key still has to match.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import api
from repro.experiment.scenarios import scenario_builder, scenario_names
from repro.runtime import AdaptationRuntime, ShardingSpec
from repro.sim import Simulator

#: scenario -> surface -> digest, captured before the build paths merged
CAPTURED = {
    "client_server": {
        "summary": "b407aca4142a3998",
        "history": "68a28f0fe5314b5e",
        "stats": "671048c9933d1c19",
        "fault_stats": "44136fa355b3678a",
    },
    "grid_site": {
        "summary": "ab6d79bc4ccc85cd",
        "history": "4456519737e5cc43",
        "stats": "58dbf8050744b743",
        "fault_stats": "4275034667c996e9",
    },
    "map_reduce": {
        "summary": "0146a50e06821398",
        "history": "2c101643977d93a8",
        "stats": "8c3c88de5bcfdc18",
        "fault_stats": "44136fa355b3678a",
    },
    "master_worker": {
        "summary": "4cafa93ceb28bd53",
        "history": "2f460d54f372d850",
        "stats": "4122605bcfef8b41",
        "fault_stats": "44136fa355b3678a",
    },
    "multi_tenant": {
        "summary": "5b90353c74cf8a61",
        "history": "aa5e179e444fcd10",
        "stats": "a15e0b6bea2796ec",
        "fault_stats": "44136fa355b3678a",
    },
    "multi_tenant_sharded": {
        "summary": "aa7e6e56ce847af0",
        "history": "8e143e94f88dd4af",
        "stats": "62303c83b1fe2e24",
        "fault_stats": "44136fa355b3678a",
    },
    "pipeline": {
        "summary": "67edd122c685c697",
        "history": "3cb358c5f12406b9",
        "stats": "b37053f67f8cf430",
        "fault_stats": "44136fa355b3678a",
    },
}

ONE_SHARD = sorted(set(CAPTURED) - {"multi_tenant_sharded"})

#: bus means left out of ``map_reduce``'s digests and pinned on their own
TRANSIT_KEYS = ("probe_mean_transit", "gauge_mean_transit")
MAP_REDUCE_DELAY = 0.05

#: grid_site's checker counters now, and the ones its digests captured
GRID_SITE_CONSTRAINTS = {
    "full_checks": 1,
    "incremental_checks": 8020,
    "scopes_evaluated": 76,
    "scopes_reused": 80134,
}
GRID_SITE_CAPTURED_CONSTRAINTS = {
    "full_checks": 8,
    "incremental_checks": 8013,
    "scopes_evaluated": 130,
    "scopes_reused": 80080,
}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, default=str).encode()).hexdigest()[:16]


def adapted(name):
    return api.run(api.RunConfig.adapted(name))


def built(name):
    """Scenario ``name``'s adapted experiment, its plane built, not run."""
    return scenario_builder(name)(api.RunConfig.adapted(name, horizon=60.0))


def test_every_registered_scenario_is_captured():
    assert sorted(CAPTURED) == sorted(scenario_names())


@pytest.mark.parametrize("scenario", sorted(CAPTURED))
def test_surfaces_equal_the_two_path_runtime(scenario):
    result = adapted(scenario)
    surfaces = {
        "summary": result.summary(),
        "history": result.history_dicts(),
        "stats": result.stats.to_dict(),
        "fault_stats": result.fault_stats,
    }
    if scenario == "map_reduce":
        for bus in (surfaces["summary"]["counters"]["bus"], surfaces["stats"]["bus"]):
            for key in TRANSIT_KEYS:
                assert abs(bus.pop(key) - MAP_REDUCE_DELAY) <= 1e-12
    if scenario == "grid_site":
        for counters in (
            surfaces["summary"]["counters"]["constraints"],
            surfaces["stats"]["constraints"],
        ):
            moved = {key: counters[key] for key in GRID_SITE_CONSTRAINTS}
            assert moved == GRID_SITE_CONSTRAINTS
            counters.update(GRID_SITE_CAPTURED_CONSTRAINTS)
    assert {k: digest(v) for k, v in surfaces.items()} == CAPTURED[scenario]


class TestOneShard:
    @pytest.mark.parametrize("scenario", ONE_SHARD)
    def test_no_shard_sections_and_no_coordinator_keys(self, scenario):
        result = adapted(scenario)
        assert result.stats.shards == ()
        assert "shards" not in result.summary()["counters"]
        assert "shards" not in result.stats.repairs

    def test_a_busy_serial_engine_keeps_its_own_peak_inflight(self):
        result = adapted("pipeline")
        assert len(result.history.committed) > 0
        # serial engines report 0; a coordinator rollup would count 1
        assert result.stats.repairs["peak_inflight"] == 0

    def test_grid_site_reads_the_engines_breakers(self):
        states = adapted("grid_site").breaker_states
        assert states and set(states.values()) <= {"closed", "open", "half-open"}

    @pytest.mark.parametrize("scenario", ONE_SHARD)
    def test_the_model_is_the_applications_own(self, scenario):
        experiment = built(scenario)
        runtime = experiment.runtime
        [engine] = runtime.managers
        assert runtime.model.shard_count == 1
        assert engine.system is runtime.model.shard(0)
        assert engine.system.name == runtime.model.name  # not "<name>[0]"
        assert runtime.history is engine.history  # finish order, not re-sorted
        assert runtime.manager.breakers is engine.breakers
        assert len(runtime.checkers) == len(runtime.updaters) == 1
        assert runtime.probe_bus.shard_count == runtime.gauge_bus.shard_count == 1


class TestOneBuildPath:
    def test_faults_on_one_shard_build(self):
        experiment = built("grid_site")
        spec = dataclasses.replace(
            experiment.runtime.spec, sharding=ShardingSpec(shards=1)
        )
        runtime = AdaptationRuntime(Simulator(), experiment, spec)
        assert runtime.fault_plane is not None

    def test_faults_on_several_shards_are_refused(self):
        experiment = built("grid_site")
        spec = dataclasses.replace(
            experiment.runtime.spec, sharding=ShardingSpec(shards=2)
        )
        with pytest.raises(ValueError, match="not shard-aware"):
            AdaptationRuntime(Simulator(), experiment, spec)

    def test_the_model_is_always_a_partition(self):
        # a caller written against the two-path runtime asks this
        assert built("pipeline").runtime.sharded
