"""Tests for the reusable adaptation control plane (repro.runtime).

Uses a deliberately tiny managed application (a two-stage pipeline) to
exercise the spec-driven build: model, checker, strategies, gauges,
probes, updater, and the full detect -> repair -> translate loop, all
independent of the client/server experiment.
"""

import pytest

from repro.app.pipeline_app import PipelineApplication
from repro.bus.bus import FixedDelay
from repro.errors import EnvironmentError_, RepairError, ReproError
from repro.experiment import (
    PipelineParams,
    RunConfig,
    scenario_builder,
    scenario_names,
)
from repro.experiment.pipeline_scenario import PipelineExperiment, pipeline_intents
from repro.experiment.runner import (
    Experiment,
    _ResultCache,
    clear_cache,
    run_scenario,
    set_cache_capacity,
)
from repro.monitoring.gauges import WindowedMeanGauge
from repro.runtime import (
    AdaptationRuntime,
    AdaptationSpec,
    PropertyUpdater,
    monitoring_table,
)
from repro.sim import Simulator
from repro.sim.trace import Trace
from repro.styles.pipeline import PIPELINE_DSL, pipeline_operators
from repro.translation import IntentTranslator

STAGES = (("extract", 1, 0.5), ("load", 1, 0.25))


def tiny_pipeline():
    """A control-run experiment: the pipeline built, no runtime of its own."""
    return PipelineExperiment(RunConfig.control("pipeline", stages=STAGES))


def tiny_runtime(max_backlog=4.0, settle_time=5.0):
    experiment = tiny_pipeline()
    sim, app = experiment.sim, experiment.app
    instruments = monitoring_table(
        app.stage_order,
        [("backlog", app.backlog, WindowedMeanGauge, {"period": 1.0, "horizon": 2.0})],
        period=0.5,
    )
    spec = AdaptationSpec(
        style="PipelineFam",
        dsl_source=PIPELINE_DSL,
        invariant_scopes={"b": "FilterT", "u": "FilterT"},
        bindings={
            "maxBacklog": max_backlog,
            "lowWater": 1.0,
            "minUtilization": 0.0,  # tiny runtime never scales down
        },
        operators=lambda rt: pipeline_operators(worker_budget=6),
        instruments=instruments,
        gauge_property_map={"backlog": "backlog"},
        delivery=FixedDelay(0.01),
        gauge_create_delay=0.5,
        settle_time=settle_time,
    )
    runtime = AdaptationRuntime(sim, experiment, spec, trace=experiment.trace)
    return sim, app, runtime


class TestAdaptationRuntimeBuild:
    def test_builds_full_stack_from_spec(self):
        _, app, rt = tiny_runtime()
        assert rt.model.has_component("extract")
        assert rt.model.component("load").get_property("width") == 1
        (engine,) = rt.managers
        assert engine.strategies == ["fixBacklog", "shrinkStage"]
        (checker,) = rt.checkers
        assert [i.name for i in checker.invariants] == ["b", "u"]
        assert checker.bindings["maxBacklog"] == 4.0
        assert isinstance(rt.translator, IntentTranslator)
        assert rt.translator.INTENT_OPS == {"widenStage", "narrowStage"}
        (updater,) = rt.updaters
        assert isinstance(updater, PropertyUpdater)
        assert len(rt.gauges) == 2
        assert len(rt.periodic_probes) == 2
        assert rt.stats().gauges["created"] == 2

    def test_model_mirrors_runtime_configuration(self):
        _, app, rt = tiny_runtime()
        assert rt.model.component("extract").get_property("serviceRate") == (
            pytest.approx(2.0)
        )

    def test_invalid_violation_policy_surfaces(self):
        experiment = tiny_pipeline()
        spec = AdaptationSpec(
            style="PipelineFam",
            dsl_source=PIPELINE_DSL,
            invariant_scopes={"b": "FilterT"},
            bindings={"maxBacklog": 4.0},
            operators=lambda rt: pipeline_operators(),
            violation_policy="bogus",
        )
        with pytest.raises(RepairError):
            AdaptationRuntime(experiment.sim, experiment, spec)


class TestAdaptationRuntimeLoop:
    def test_detects_and_repairs_backlog(self):
        """Backlog over threshold -> widen committed -> runtime width grows."""
        sim, app, rt = tiny_runtime(max_backlog=4.0, settle_time=1.0)
        rt.start()
        # Flood the slow stage faster than it drains (2/s capacity).
        for _ in range(30):
            app.submit()
        sim.run(until=30.0)
        assert len(rt.history.committed) >= 1
        assert app.stage("extract").width > 1
        record = rt.history.committed[0]
        assert record.strategy == "fixBacklog"
        assert [i.op for i in record.intents] == ["widenStage"]
        # The model reflects the widened stage too (repair ran on the model).
        assert rt.model.component("extract").get_property("width") > 1

    def test_quiet_system_never_repairs(self):
        sim, app, rt = tiny_runtime()
        rt.start()
        app.submit()
        sim.run(until=20.0)
        assert len(rt.history) == 0
        assert app.completed == 1

    def test_periodic_check_rides_incremental_fast_path(self):
        """Gauge-driven evaluations reuse cached constraint results: only
        the dirtied scopes re-evaluate between checks."""
        sim, app, rt = tiny_runtime(max_backlog=1e9)  # healthy throughout
        rt.start()
        for _ in range(12):
            app.submit()
        sim.run(until=20.0)
        stats = rt.stats().constraints
        assert stats["evaluations"] > 10
        assert stats["incremental_checks"] > 0
        assert stats["full_checks"] <= 2  # the initial cache build
        # strictly cheaper than re-evaluating every scope every check
        total_scopes = stats["scopes_evaluated"] + stats["scopes_reused"]
        assert stats["scopes_reused"] > 0
        assert stats["scopes_evaluated"] < total_scopes

    def test_updater_applies_gauge_reports_to_model(self):
        sim, app, rt = tiny_runtime(max_backlog=1e9)  # never violate
        rt.start()
        for _ in range(12):
            app.submit()
        sim.run(until=3.0)
        assert rt.updaters[0].applied > 0
        assert rt.model.component("extract").get_property("backlog") > 0.0


def pipeline_translator(sim, app, widen_cost):
    table = pipeline_intents(app, PipelineParams(widen_cost=widen_cost))
    return IntentTranslator(sim, table, Trace())


class TestPipelineIntents:
    def test_rejects_unknown_intent(self):
        from repro.repair.context import RuntimeIntent

        sim = Simulator()
        app = PipelineApplication(sim, STAGES)
        translator = pipeline_translator(sim, app, widen_cost=0.0)
        translator.execute([RuntimeIntent("teleport", {"stage": "extract"})])
        with pytest.raises(ReproError):
            sim.run()

    def test_applies_width_after_cost(self):
        from repro.repair.context import RuntimeIntent

        sim = Simulator()
        app = PipelineApplication(sim, STAGES)
        translator = pipeline_translator(sim, app, widen_cost=2.0)
        done = []
        translator.execute(
            [RuntimeIntent("widenStage", {"stage": "load", "width": 3})],
            on_done=lambda: done.append(sim.now),
        )
        sim.run(until=1.0)
        assert app.stage("load").width == 1  # cost not yet charged
        sim.run(until=5.0)
        assert app.stage("load").width == 3
        assert done == [2.0]


class TestPipelineApplication:
    def test_items_flow_through(self):
        sim = Simulator()
        app = PipelineApplication(sim, STAGES)
        for _ in range(4):
            app.submit()
        sim.run()
        assert (app.issued, app.completed, app.in_flight) == (4, 4, 0)
        assert app.stage("extract").processed == 4

    def test_backlog_respects_width(self):
        sim = Simulator()
        app = PipelineApplication(sim, STAGES)
        for _ in range(5):
            app.submit()
        assert app.backlog("extract") == 4  # 1 in service, 4 waiting
        app.set_width("extract", 3)
        assert app.backlog("extract") == 2  # widening pumps immediately

    def test_rejects_degenerate_shapes(self):
        sim = Simulator()
        with pytest.raises(EnvironmentError_):
            PipelineApplication(sim, STAGES[:1])
        with pytest.raises(EnvironmentError_):
            PipelineApplication(sim, (("a", 0, 1.0), ("b", 1, 1.0)))
        app = PipelineApplication(sim, STAGES)
        with pytest.raises(EnvironmentError_):
            app.set_width("extract", 0)
        with pytest.raises(EnvironmentError_):
            app.stage("nope")


class TestScenarioRegistry:
    def test_builtin_scenarios_registered(self):
        assert "client_server" in scenario_names()
        assert "pipeline" in scenario_names()

    def test_builder_dispatch(self):
        builder = scenario_builder("client_server")
        exp = builder(RunConfig.control().but(horizon=5.0))
        assert isinstance(exp, Experiment)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError):
            scenario_builder("warehouse")
        with pytest.raises(ReproError):
            run_scenario(RunConfig(scenario="warehouse"))

    def test_duplicate_registration_rejected(self):
        from repro.experiment.scenarios import register_scenario

        with pytest.raises(ReproError):
            register_scenario("pipeline")(lambda config: None)


class TestSeedCompatibility:
    """The refactored client_server scenario reproduces the seed exactly.

    These scalars were captured from the pre-refactor runner (seed 2002,
    full 1800 s horizon); any change to construction order, bus matching,
    or scheduling perturbs the deterministic simulation and shows up here.
    The run is shared with the bench fixtures through the result cache.
    """

    def test_adapted_run_matches_seed_scalars(self):
        result = run_scenario(RunConfig.adapted())
        assert result.issued == 17930
        assert result.completed == 15729
        assert result.dropped == 2199
        assert len(result.history) == 17
        assert len(result.history.committed) == 12
        assert len(result.history.aborted) == 5

    def test_control_run_matches_seed_scalars(self):
        result = run_scenario(RunConfig.control())
        assert result.issued == 17930
        assert result.completed == 17928
        assert result.dropped == 0
        assert len(result.history) == 0


class TestResultCacheLRU:
    def test_evicts_least_recently_used(self):
        cache = _ResultCache(capacity=2)
        cache.put(("a",), "A")
        cache.put(("b",), "B")
        assert cache.get(("a",)) == "A"  # refresh a
        cache.put(("c",), "C")           # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A"
        assert cache.get(("c",)) == "C"
        assert len(cache) == 2

    def test_hit_miss_stats(self):
        cache = _ResultCache(capacity=2)
        cache.put(("a",), "A")
        cache.get(("a",))
        cache.get(("x",))
        assert (cache.hits, cache.misses) == (1, 1)

    def test_resize_trims(self):
        cache = _ResultCache(capacity=4)
        for i in range(4):
            cache.put((i,), i)
        cache.resize(2)
        assert len(cache) == 2
        assert cache.get((3,)) == 3  # newest survive
        with pytest.raises(ValueError):
            cache.resize(0)

    def test_run_scenario_respects_capacity(self):
        clear_cache()
        set_cache_capacity(1)
        try:
            cfg_a = RunConfig.control().but(horizon=5.0)
            cfg_b = RunConfig.control().but(horizon=6.0)
            r_a = run_scenario(cfg_a)
            r_b = run_scenario(cfg_b)           # evicts cfg_a
            assert run_scenario(cfg_b) is r_b   # still cached
            assert run_scenario(cfg_a) is not r_a  # re-run after eviction
        finally:
            set_cache_capacity(32)
            clear_cache()
