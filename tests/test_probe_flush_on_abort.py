"""Regression: batched probes flush their tail on every exit path.

A ``CallbackProbe(batch=N)`` buffers observations between publishes; if
a run dies mid-burst, the buffered tail must still reach the bus —
``AdaptationRuntime.stop`` flushes every periodic probe, and something
has to call it.  Two doors are covered:

* ``Scenario.run()`` itself: every registered scenario sits on
  :class:`~repro.experiment.base.ScenarioExperiment`, whose ``run()``
  stops the control plane in ``finally`` (the contract tests at the
  bottom drive ``scenario_entry(name).builder(cfg).run()`` directly);
* ``run_scenario``: its fallback stops whatever ``Scenario.build()``
  returns, so a hand-rolled scenario that forgets is still flushed.
"""

import pytest

from repro.api import RunConfig
from repro.bus.bus import FixedDelay
from repro.experiment.pipeline_scenario import PipelineExperiment
from repro.experiment.runner import clear_cache, run_scenario
from repro.experiment.scenarios import (
    register_scenario,
    scenario_entry,
    scenario_names,
    unregister_scenario,
)
from repro.monitoring.probes import CallbackProbe
from repro.runtime import AdaptationRuntime, AdaptationSpec, ProbeBinding
from repro.styles.pipeline import PIPELINE_DSL, pipeline_operators

STAGES = (("extract", 1, 0.5), ("load", 1, 0.25))
SCENARIO = "exploding_probe_flush"


class MidRunExplosion(Exception):
    """The injected mid-run failure."""


class ExplodingExperiment:
    """Buffers a partial probe batch, then dies mid-run."""

    def __init__(self, config):
        self.config = config
        # the pipeline, built by a control-run experiment with no runtime
        managed = PipelineExperiment(RunConfig.control("pipeline", stages=STAGES))
        self.sim = managed.sim
        spec = AdaptationSpec(
            style="PipelineFam",
            dsl_source=PIPELINE_DSL,
            invariant_scopes={"b": "FilterT", "u": "FilterT"},
            # thresholds no tiny run can trip: the probe is the subject
            bindings={"maxBacklog": 1e9, "lowWater": 0.0, "minUtilization": 0.0},
            operators=lambda rt: pipeline_operators(),
            instruments=[
                ProbeBinding(
                    lambda rt: CallbackProbe(
                        rt.sim,
                        rt.probe_bus,
                        "load",
                        "extract",
                        lambda: 1.0,
                        period=1.0,
                        batch=10,
                    ),
                    periodic=True,
                )
            ],
            delivery=FixedDelay(0.01),
        )
        self.runtime = AdaptationRuntime(self.sim, managed, spec)

    def build(self):
        return self.runtime

    def run(self):
        self.runtime.start()
        # samples at t = 0..4: five observations buffered, batch=10,
        # so nothing has been published when the run explodes
        self.sim.run(until=4.5)
        raise MidRunExplosion("injected mid-run failure")


@pytest.fixture
def exploding():
    created = []

    def builder(config):
        experiment = ExplodingExperiment(config)
        created.append(experiment)
        return experiment

    register_scenario(SCENARIO, description="probe-flush regression")(builder)
    try:
        yield created
    finally:
        unregister_scenario(SCENARIO)
        clear_cache()


def test_buffered_tail_flushes_when_run_dies_mid_burst(exploding):
    with pytest.raises(MidRunExplosion):
        run_scenario(RunConfig.adapted(SCENARIO, horizon=100.0))
    probe = exploding[0].runtime.periodic_probes[0]
    assert probe.batches == 1  # the partial batch went out anyway
    assert probe.samples == 5  # all five buffered observations
    assert probe._pending_values == []
    assert exploding[0].runtime.probe_bus.published == 1


def test_stop_is_idempotent_after_error_path(exploding):
    with pytest.raises(MidRunExplosion):
        run_scenario(RunConfig.adapted(SCENARIO, horizon=100.0))
    runtime = exploding[0].runtime
    runtime.stop()  # second stop: no double flush, no error
    probe = runtime.periodic_probes[0]
    assert probe.batches == 1
    assert runtime.probe_bus.published == 1


def test_failed_run_is_not_cached(exploding):
    with pytest.raises(MidRunExplosion):
        run_scenario(RunConfig.adapted(SCENARIO, horizon=100.0))
    with pytest.raises(MidRunExplosion):
        run_scenario(RunConfig.adapted(SCENARIO, horizon=100.0))
    assert len(exploding) == 2  # both calls actually ran


# -- the Scenario.run() contract, over every registered scenario ------------


def _spied(name, variant):
    """A built (never run) experiment whose runtime.stop calls are logged.

    Each call records the counters as they stood just before the stop.
    """
    config = getattr(RunConfig, variant)(name, horizon=30.0)
    experiment = scenario_entry(name).builder(config)
    runtime = experiment.build()
    stops = []
    if runtime is not None:
        real_stop = runtime.stop

        def stop():
            stops.append(runtime.stats())
            real_stop()

        runtime.stop = stop
    return experiment, runtime, stops


@pytest.mark.parametrize("name", scenario_names())
def test_run_stops_the_control_plane_on_success(name):
    experiment, runtime, stops = _spied(name, "adapted")
    assert runtime is experiment.runtime is not None
    result = experiment.run()  # the protocol's door, not run_scenario
    # stopped once, after the snapshot: the flush did not move the counters
    assert stops == [result.stats]
    assert experiment.sim.now == 30.0
    for probe in runtime.periodic_probes:
        assert not getattr(probe, "_pending_values", [])


@pytest.mark.parametrize("name", scenario_names())
def test_run_stops_the_control_plane_when_the_simulation_raises(name):
    experiment, runtime, stops = _spied(name, "adapted")

    def explode(until=None):
        raise MidRunExplosion("injected mid-run failure")

    experiment.sim.run = explode
    with pytest.raises(MidRunExplosion):
        experiment.run()
    assert len(stops) == 1


@pytest.mark.parametrize("name", scenario_names())
def test_control_run_builds_no_runtime_and_no_snapshot(name):
    experiment, runtime, _ = _spied(name, "control")
    assert runtime is None and experiment.runtime is None
    assert experiment.run().stats is None
