"""Runner wiring tests: configuration knobs reach the right components."""

from repro.experiment import RunConfig
from repro.experiment.runner import (
    Experiment,
    clear_cache,
    run_scenario,
    set_cache_capacity,
)


class TestRunConfig:
    def test_named_variants(self):
        assert RunConfig.control().adaptation is False
        assert RunConfig.adapted().adaptation is True

    def test_but_returns_modified_copy(self):
        base = RunConfig.adapted().resolved()
        other = base.but(settle_time=60.0)
        assert other.params.settle_time == 60.0
        assert base.params.settle_time == 20.0

    def test_cache_key_distinguishes_configs(self):
        a = RunConfig.adapted()
        b = RunConfig.adapted().but(gauge_caching=True)
        assert a.cache_key() != b.cache_key()
        assert a.cache_key() == RunConfig.adapted().cache_key()


class TestExperimentWiring:
    def test_control_has_no_model_layer(self):
        exp = Experiment(RunConfig.control().but(horizon=10.0))
        assert exp.manager is None
        assert exp.model is None
        assert exp.build() is None

    def test_adapted_has_full_stack(self):
        exp = Experiment(RunConfig.adapted().but(horizon=10.0))
        assert exp.manager is not None
        assert exp.model.has_component("SG1")
        engine = exp.runtime.managers[0]
        assert sorted(engine.strategies) == [
            "fixLatency", "fixUnderutilization",
        ]
        assert [i.name for i in engine.checker.invariants] == ["r", "u"]

    def test_underutilization_repair_optional(self):
        exp = Experiment(RunConfig.adapted().but(
            horizon=10.0, underutilization_repair=False))
        engine = exp.runtime.managers[0]
        assert engine.strategies == ["fixLatency"]
        assert [i.name for i in engine.checker.invariants] == ["r"]

    def test_violation_policy_reaches_engine(self):
        exp = Experiment(RunConfig.adapted().but(
            horizon=10.0, violation_policy="worst"))
        assert exp.runtime.managers[0].violation_policy == "worst"

    def test_gauge_caching_reaches_costs_and_manager(self):
        exp = Experiment(RunConfig.adapted().but(
            horizon=10.0, gauge_caching=True))
        assert exp.runtime.gauge_manager.cached is True
        assert exp.runtime.translator.costs.cached_gauges is True

    def test_thresholds_reach_checker_bindings(self):
        exp = Experiment(RunConfig.adapted().but(
            horizon=10.0, max_latency=3.0, min_bandwidth=50e3))
        b = exp.runtime.checkers[0].bindings
        assert b["maxLatency"] == 3.0
        assert b["minBandwidth"] == 50e3
        assert b["minServers"] == 3

    def test_initial_model_mirrors_testbed(self):
        exp = Experiment(RunConfig.adapted().but(horizon=10.0))
        model = exp.model
        assert model.component("SG1").get_property("replication") == 3
        assert model.component("SG2").get_property("replication") == 2
        assert len(model.components_of_type("ClientT")) == 6

    def test_prewarm_toggle(self):
        warm = Experiment(RunConfig.adapted().but(horizon=10.0))
        cold = Experiment(RunConfig.adapted().but(
            horizon=10.0, remos_prewarm=False))
        assert warm.remos.is_warm("M_C3", "M_S1")
        assert not cold.remos.is_warm("M_C3", "M_S1")


class TestRunCache:
    def test_cache_returns_same_object(self):
        cfg = RunConfig.control().but(horizon=50.0)
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg)
        assert r1 is r2

    def test_fresh_bypasses_cache(self):
        cfg = RunConfig.control().but(horizon=50.0)
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg, fresh=True)
        assert r1 is not r2

    def test_clear_cache(self):
        cfg = RunConfig.control().but(horizon=50.0)
        r1 = run_scenario(cfg)
        clear_cache()
        assert run_scenario(cfg) is not r1


class TestFreshLruInterplay:
    """Satellite: fresh=True re-runs but still participates in the LRU."""

    def setup_method(self):
        clear_cache()
        set_cache_capacity(2)

    def teardown_method(self):
        set_cache_capacity(32)
        clear_cache()

    def test_fresh_result_replaces_cached_entry(self):
        cfg = RunConfig.control().but(horizon=50.0)
        stale = run_scenario(cfg)
        fresh = run_scenario(cfg, fresh=True)
        assert fresh is not stale
        # subsequent cached reads see the fresh object, not the stale one
        assert run_scenario(cfg) is fresh

    def test_fresh_run_counts_toward_capacity(self):
        cfg_a = RunConfig.control().but(horizon=50.0)
        cfg_b = RunConfig.control().but(horizon=51.0)
        cfg_c = RunConfig.control().but(horizon=52.0)
        r_a = run_scenario(cfg_a)
        run_scenario(cfg_b)
        # a fresh third run must evict the least-recently-used entry (a)
        r_c = run_scenario(cfg_c, fresh=True)
        assert run_scenario(cfg_c) is r_c
        assert run_scenario(cfg_a) is not r_a  # evicted, re-ran

    def test_fresh_refreshes_recency(self):
        cfg_a = RunConfig.control().but(horizon=50.0)
        cfg_b = RunConfig.control().but(horizon=51.0)
        run_scenario(cfg_a)
        r_b = run_scenario(cfg_b)
        # fresh re-run of a makes it most recent; inserting c evicts b
        r_a = run_scenario(cfg_a, fresh=True)
        run_scenario(RunConfig.control().but(horizon=52.0))
        assert run_scenario(cfg_a) is r_a
        assert run_scenario(cfg_b) is not r_b  # evicted
