"""Tests for the scenario-neutral experiment API.

Covers the typed RunConfig + params design: field routing, named
variants, registry entries (params types, error paths), and the headline
acceptance criterion — the client/server adapted run is bit-for-bit
identical (series + trace schedule) through the experiment package's
``run_scenario`` and the ``repro.api.run`` facade.
"""

import pytest

from repro import api
from repro.errors import ReproError
from repro.experiment import (
    ClientServerParams,
    MasterWorkerParams,
    PipelineParams,
    RunConfig,
    ScenarioParams,
    as_run_config,
    run_scenario,
)
from repro.experiment.scenarios import (
    Scenario,
    register_scenario,
    scenario_entry,
    unregister_scenario,
)


class TestRunConfig:
    def test_named_variants(self):
        assert RunConfig.control().adaptation is False
        assert RunConfig.adapted().adaptation is True
        assert RunConfig.control().name == "control"

    def test_named_variants_propagate_scenario(self):
        assert RunConfig.control("pipeline").scenario == "pipeline"
        assert RunConfig.adapted("master_worker").scenario == "master_worker"

    def test_named_variants_accept_overrides(self):
        cfg = RunConfig.adapted("pipeline", horizon=60.0, burst_rate=4.0)
        assert cfg.horizon == 60.0
        assert cfg.params.burst_rate == 4.0

    def test_but_routes_params_fields(self):
        cfg = RunConfig(scenario="pipeline").but(settle_time=60.0)
        assert cfg.params.settle_time == 60.0
        assert cfg.horizon == 1800.0  # neutral untouched

    def test_but_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="no parameter"):
            RunConfig(scenario="pipeline").but(warp_factor=9)

    def test_but_scenario_change_drops_stale_params(self):
        cfg = RunConfig(scenario="pipeline").but(burst_rate=4.0)
        moved = cfg.but(scenario="client_server")
        assert moved.params is None
        assert moved.resolved().params == ClientServerParams()

    def test_scenario_knobs_live_on_the_params_block_only(self):
        """The PR-3 attribute fall-through is gone: one door per knob."""
        cfg = RunConfig().resolved()
        assert "__getattr__" not in vars(RunConfig)
        assert cfg.params.max_latency == 2.0
        with pytest.raises(AttributeError):
            cfg.max_latency

    def test_resolved_fills_registered_defaults(self):
        cfg = RunConfig(scenario="pipeline").resolved()
        assert isinstance(cfg.params, PipelineParams)

    def test_resolved_rejects_wrong_params_type(self):
        cfg = RunConfig(scenario="pipeline", params=ClientServerParams())
        with pytest.raises(ReproError, match="PipelineParams"):
            cfg.resolved()

    def test_resolved_rejects_bad_values(self):
        with pytest.raises(ReproError, match="horizon"):
            RunConfig(horizon=-1.0).resolved()
        with pytest.raises(ReproError, match="violation_policy"):
            RunConfig().but(violation_policy="bogus").resolved()

    def test_cache_key_distinguishes_configs(self):
        a = RunConfig.adapted()
        assert a.cache_key() == RunConfig.adapted().cache_key()
        assert a.cache_key() != a.but(gauge_caching=True).cache_key()
        assert a.cache_key() != RunConfig.adapted("pipeline").cache_key()

    def test_as_run_config_resolves_or_rejects(self):
        assert as_run_config(RunConfig()).params is not None
        with pytest.raises(ReproError, match="expected RunConfig"):
            as_run_config(object())


class TestScenarioParams:
    def test_but_and_cache_key(self):
        p = PipelineParams().but(burst_rate=4.0)
        assert p.burst_rate == 4.0
        assert p.cache_key() != PipelineParams().cache_key()
        assert p.cache_key()[0] == "PipelineParams"

    def test_but_rejects_unknown(self):
        with pytest.raises(ReproError):
            ClientServerParams().but(nope=1)

    def test_validation_catches_inconsistency(self):
        cfg = RunConfig(
            params=ClientServerParams(stress_start=100.0, quiescent_end=500.0)
        )
        with pytest.raises(ReproError, match="phases"):
            cfg.resolved()
        bad = RunConfig(
            scenario="master_worker",
            params=MasterWorkerParams(workers=2, min_workers=4),
        )
        with pytest.raises(ReproError, match="pool sizes"):
            bad.resolved()


class TestRegistry:
    def test_entries_carry_params_types(self):
        assert scenario_entry("client_server").params_type is ClientServerParams
        assert scenario_entry("pipeline").params_type is PipelineParams
        assert scenario_entry("master_worker").params_type is MasterWorkerParams

    def test_unknown_scenario(self):
        with pytest.raises(ReproError, match="warehouse"):
            scenario_entry("warehouse")
        with pytest.raises(ReproError):
            api.run(RunConfig(scenario="warehouse"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            register_scenario("pipeline")(lambda config: None)

    def test_params_must_be_scenario_params_subclass(self):
        with pytest.raises(ReproError, match="ScenarioParams"):
            register_scenario("bogus_params", params=dict)

    def test_register_unregister_round_trip(self):
        @register_scenario("tmp_scenario", description="temp")
        def build(config):  # pragma: no cover - never built
            raise AssertionError

        try:
            assert scenario_entry("tmp_scenario").description == "temp"
        finally:
            unregister_scenario("tmp_scenario")
        with pytest.raises(ReproError):
            unregister_scenario("tmp_scenario")

    def test_builtin_experiments_satisfy_scenario_protocol(self):
        from repro.experiment.runner import Experiment

        exp = Experiment(RunConfig.control(horizon=10.0))
        assert isinstance(exp, Scenario)
        assert exp.build() is None  # control run: no control plane
        adapted = Experiment(RunConfig.adapted(horizon=10.0))
        assert adapted.build() is adapted.runtime is not None


class TestApiFacade:
    def test_make_config_routes_overrides(self):
        cfg = api.make_config(
            "pipeline", fast=True, overrides={"burst_rate": 4.0, "seed": 7}
        )
        assert cfg.horizon == api.FAST_HORIZON
        assert cfg.seed == 7
        assert cfg.params.burst_rate == 4.0

    def test_fast_caps_horizon_regardless_of_spelling(self):
        via_kwarg = api.make_config("pipeline", horizon=900.0, fast=True)
        via_override = api.make_config(
            "pipeline", fast=True, overrides={"horizon": 900.0}
        )
        assert via_kwarg.horizon == via_override.horizon == api.FAST_HORIZON

    def test_list_scenarios_shape(self):
        entries = {e["name"]: e for e in api.list_scenarios()}
        assert {"client_server", "pipeline", "master_worker"} <= set(entries)
        assert entries["pipeline"]["params_type"] == "PipelineParams"
        assert entries["pipeline"]["params"]["worker_budget"] == 8

    def test_run_result_summary_and_json(self):
        import json

        result = api.run(RunConfig.control("pipeline", horizon=60.0))
        summary = result.summary()
        assert summary["scenario"] == "pipeline"
        assert summary["issued"] == result.issued
        assert summary["repairs"]["committed"] == 0
        # the typed block rides along, so archived JSON reproduces the run
        assert summary["params_type"] == "PipelineParams"
        assert summary["params"]["burst_rate"] == 3.0
        parsed = json.loads(result.to_json(include_series=True))
        assert "series_data" in parsed
        assert parsed["series"]["repair.active"]["samples"] > 0

    def test_compare_runs_both_variants(self):
        pair = api.compare("pipeline", horizon=120.0)
        assert pair["adapted"].config.adaptation is True
        assert pair["control"].config.adaptation is False
        assert pair["adapted"].issued == pair["control"].issued

    def test_clients_accessor_only_on_client_server_results(self):
        """Satellite: the latency.C* parser lives on the subclass only."""
        pipeline = api.run(RunConfig.control("pipeline", horizon=60.0))
        assert not hasattr(pipeline, "clients")
        assert pipeline.stages == ["ingest", "publish", "transform"]
        cs = api.run(RunConfig.control(horizon=60.0))
        assert cs.clients == ["C1", "C2", "C3", "C4", "C5", "C6"]


class TestFingerprintEquivalence:
    """Acceptance: both front doors produce the identical simulation."""

    def test_adapted_run_bit_for_bit_through_both_paths(self):
        legacy = run_scenario(RunConfig.adapted())
        modern = api.run(
            RunConfig(scenario="client_server", name="adapted"), fresh=True
        )
        assert modern is not legacy  # two real runs, not a cache hit
        # scalar fingerprint (the pinned seed values)
        assert (modern.issued, modern.completed, modern.dropped) == (
            legacy.issued, legacy.completed, legacy.dropped
        )
        # series fingerprint: every sample identical, bit for bit
        assert sorted(modern.series) == sorted(legacy.series)
        for name in legacy.series:
            assert list(modern.s(name).times) == list(legacy.s(name).times)
            lv = legacy.s(name).values
            mv = modern.s(name).values
            assert ((lv == mv) | ((lv != lv) & (mv != mv))).all(), name
        # trace fingerprint: the full event schedule matches
        assert len(modern.trace) == len(legacy.trace)
        assert modern.trace.records == legacy.trace.records
        # the fresh run replaced the shared cache entry
        assert run_scenario(RunConfig.adapted()) is modern
