"""The unified RuntimeStats surface.

Pins the contract: ``AdaptationRuntime.stats()`` returns one frozen
:class:`RuntimeStats` (the five per-section ``*_stats()`` methods it
replaced are gone); ``RunResult.stats`` carries the snapshot and
round-trips through strict JSON; and the ``sharding.*`` config block
reaches the runtime through ``--set``-style dotted overrides.
"""

import json

import pytest

from repro import api
from repro.app.pipeline_app import PipelineApplication
from repro.bus.bus import FixedDelay
from repro.errors import ReproError
from repro.experiment.pipeline_scenario import PipelineManagedApplication
from repro.monitoring.gauges import BacklogGauge
from repro.monitoring.probes import StageBacklogProbe
from repro.runtime import (
    AdaptationRuntime,
    AdaptationSpec,
    GaugeBinding,
    ProbeBinding,
    RuntimeStats,
    ShardingSpec,
    ShardStats,
)
from repro.sim import Simulator
from repro.sim.trace import Trace
from repro.styles.pipeline import PIPELINE_DSL, pipeline_operators

STAGES = (("extract", 1, 0.5), ("load", 1, 0.25))


def busy_runtime():
    """A tiny pipeline runtime driven long enough to populate counters."""
    sim = Simulator()
    trace = Trace()
    app = PipelineApplication(sim, STAGES, trace=trace)
    instruments = []
    for stage in app.stage_order:
        instruments.append(ProbeBinding(
            lambda rt, s=stage: StageBacklogProbe(
                rt.sim, rt.probe_bus, app, s, period=0.5
            ),
            periodic=True,
        ))
        instruments.append(GaugeBinding(
            lambda rt, s=stage: BacklogGauge(
                rt.sim, rt.probe_bus, rt.gauge_bus, s, period=1.0, horizon=2.0
            ),
            entities=[stage],
        ))
    spec = AdaptationSpec(
        style="PipelineFam",
        dsl_source=PIPELINE_DSL,
        invariant_scopes={"b": "FilterT", "u": "FilterT"},
        bindings={"maxBacklog": 4.0, "lowWater": 1.0, "minUtilization": 0.0},
        operators=lambda rt: pipeline_operators(worker_budget=6),
        instruments=instruments,
        gauge_property_map={"backlog": "backlog"},
        delivery=FixedDelay(0.01),
        gauge_create_delay=0.5,
        settle_time=1.0,
    )
    runtime = AdaptationRuntime(
        sim, PipelineManagedApplication(app), spec, trace=trace
    )
    runtime.start()
    for _ in range(30):
        app.submit()
    sim.run(until=30.0)
    return runtime


@pytest.fixture(scope="module")
def rt():
    return busy_runtime()


class TestRuntimeStatsObject:
    def test_stats_returns_typed_snapshot(self, rt):
        stats = rt.stats()
        assert isinstance(stats, RuntimeStats)
        assert stats.bus["probe_published"] > 0
        assert stats.gauges["created"] == 2
        assert stats.constraints["evaluations"] > 0
        assert stats.repairs["evaluations"] > 0
        assert stats.faults is None  # no fault plane on this runtime
        assert stats.shards == ()  # unsharded path

    def test_stats_return_annotation_is_typed(self):
        # the old hint (Dict[str, Dict[str, float]]) was a lie — fault
        # and telemetry sections nest non-float values
        assert (
            AdaptationRuntime.stats.__annotations__["return"]
            == "RuntimeStats"
        )

    def test_stats_is_the_only_counter_accessor(self):
        leftovers = [
            name for name in vars(AdaptationRuntime)
            if name.endswith("_stats") and not name.startswith("_")
        ]
        assert leftovers == []

    def test_to_dict_has_historical_shape(self, rt):
        data = rt.stats().to_dict()
        assert set(data) == {
            "bus", "gauges", "constraints", "repairs", "telemetry",
        }
        for section in data.values():
            assert isinstance(section, dict)

    def test_json_round_trip(self, rt):
        stats = rt.stats()
        text = stats.to_json()
        assert RuntimeStats.from_dict(json.loads(text)) == stats
        # strict JSON: no NaN/Infinity tokens can sneak in
        json.loads(text, parse_constant=pytest.fail)

    def test_round_trip_preserves_shard_sections(self):
        stats = RuntimeStats(
            bus={"published": 3},
            shards=(
                ShardStats(
                    shard=0,
                    bus={"probe_published": 1.0},
                    constraints={"evaluations": 2},
                    repairs={"evaluations": 2},
                ),
            ),
        )
        rebuilt = RuntimeStats.from_dict(json.loads(stats.to_json()))
        assert rebuilt == stats
        assert rebuilt.shards[0].shard == 0


class TestRunResultStats:
    def test_adapted_run_carries_snapshot(self):
        result = api.run(api.make_config("pipeline", fast=True))
        stats = result.stats
        assert isinstance(stats, RuntimeStats)
        # the legacy per-section dict views stay consistent with it
        assert result.bus_stats == dict(stats.bus)
        assert result.constraint_stats == dict(stats.constraints)
        assert RuntimeStats.from_dict(json.loads(stats.to_json())) == stats

    def test_control_run_has_no_snapshot(self):
        result = api.run(
            api.make_config("pipeline", adaptation=False, fast=True)
        )
        assert result.stats is None

    def test_fault_plane_section_flows_through(self):
        result = api.run(api.make_config("grid_site", fast=True))
        assert result.stats.faults is not None
        assert result.fault_stats == dict(result.stats.faults)


class TestShardedScenarioStats:
    @pytest.fixture(scope="class")
    def result(self):
        return api.run(api.make_config("multi_tenant_sharded", fast=True))

    def test_per_shard_sections_and_rollup(self, result):
        stats = result.stats
        assert len(stats.shards) == 3
        assert [s.shard for s in stats.shards] == [0, 1, 2]
        rollup = stats.repairs
        assert rollup["shards"] == 3
        # the rollup is the engines' keys plus the shard count, nothing else
        assert set(rollup) == set(stats.shards[0].repairs) | {"shards"}
        # shard sections sum to the rollup's evaluation counters
        assert sum(
            s.repairs["evaluations"] for s in stats.shards
        ) == rollup["evaluations"]

    def test_summary_exposes_shard_counters(self, result):
        counters = result.summary()["counters"]
        assert len(counters["shards"]) == 3
        json.dumps(result.summary(), allow_nan=False)  # strict-JSON safe

    def test_snapshot_round_trips(self, result):
        stats = result.stats
        assert RuntimeStats.from_dict(json.loads(stats.to_json())) == stats


class TestShardingOverridePlumbing:
    def test_dotted_override_builds_nested_spec(self):
        config = api.make_config(
            "multi_tenant",
            overrides={"sharding.shards": 2, "sharding.key": "numeric_suffix"},
        )
        assert config.params.sharding == ShardingSpec(
            shards=2, key="numeric_suffix"
        )

    def test_dotted_override_validates_on_construction(self):
        with pytest.raises(ReproError, match="invalid sharding spec"):
            api.make_config(
                "multi_tenant", overrides={"sharding.shards": 0}
            )

    @pytest.mark.parametrize("field", ["bogus", "enabled"])
    def test_unknown_nested_field_rejected(self, field):
        # ``enabled`` was a kill switch beside ``shards``; one shard is
        # the off position now, and the old field is just unknown
        with pytest.raises(
            ReproError, match=rf"ShardingSpec has no parameter\(s\) \['{field}'\]"
        ):
            api.make_config(
                "multi_tenant", overrides={f"sharding.{field}": False}
            )

    def test_cli_set_of_the_removed_kill_switch_exits_1(self, capsys):
        from repro.cli import main

        argv = ["run", "multi_tenant_sharded", "--set", "sharding.enabled=false"]
        assert main(argv) == 1
        error = capsys.readouterr().err
        assert "ShardingSpec has no parameter(s) ['enabled']" in error

    def test_unknown_shard_key_rejected_by_params_validate(self):
        with pytest.raises(ReproError, match="not registered"):
            api.make_config(
                "multi_tenant", overrides={"sharding.key": "no_such_key"}
            ).resolved()
