"""The ``pipeline`` scenario: a second application, same control plane.

This is the style-generality claim made runnable end to end.  A simulated
batch pipeline (:class:`~repro.app.pipeline_app.PipelineApplication`) is
adapted by the *same* :class:`~repro.runtime.core.AdaptationRuntime`
the client/server experiment uses — different family, invariant,
operators, probes, and translator, but zero new control-plane machinery:

* workload: a Poisson item stream that bursts above the bottleneck
  stage's capacity mid-run (analogous to the Figure 7 stress phase);
* monitoring: a table of per-stage backlog reads -> windowed-mean
  gauges, plus worker-occupancy reads -> EWMA gauges, both through the
  generic :class:`~repro.runtime.updater.PropertyUpdater`;
* constraints: the style's ``backlog <= maxBacklog`` invariant plus the
  ``idleWidth`` underutilization invariant, both scoped to ``FilterT``;
* repair: ``fixBacklog`` from :data:`~repro.styles.pipeline.PIPELINE_DSL`
  widens the violating stage within a worker budget, and ``shrinkStage``
  narrows an idle stage back toward its designed ``minWidth`` once the
  burst passes (the scale-down mirror);
* translation: :func:`pipeline_intents` charges a worker spin-up cost,
  applies the stage's new width, and blanks the stage's gauges for the
  redeployment window.

Every knob lives in the typed
:class:`~repro.experiment.params.PipelineParams` block; the scenario
consumes a scenario-neutral :class:`~repro.experiment.config.RunConfig`
through the shared :class:`~repro.experiment.base.ScenarioExperiment`
skeleton and returns a :class:`~repro.experiment.result.PipelineResult`.

The control run injects the identical seeded workload with no adaptation:
the bottleneck backlog grows throughout the burst and never drains inside
the horizon, while the adapted run widens the stage and recovers.
"""

from __future__ import annotations

from typing import Dict

from repro.app.pipeline_app import PipelineApplication
from repro.bus.bus import FixedDelay
from repro.experiment.base import ScenarioExperiment
from repro.experiment.params import PipelineParams
from repro.experiment.result import PipelineResult
from repro.experiment.scenarios import register_scenario
from repro.experiment.workload import Arrivals, burst
from repro.monitoring.gauges import EwmaGauge, WindowedMeanGauge
from repro.runtime import AdaptationSpec
from repro.runtime.spec import monitoring_table
from repro.styles.pipeline import (
    PIPELINE_DSL,
    build_pipeline_family,
    build_pipeline_model,
    pipeline_operators,
)
from repro.translation import IntentRow

__all__ = [
    "PipelineExperiment",
    "pipeline_intents",
]


def pipeline_intents(
    app: PipelineApplication, params: PipelineParams
) -> Dict[str, IntentRow]:
    """``widenStage``/``narrowStage``: charge the worker spin-up cost,
    set the stage's width, and blind the stage's gauges."""

    def set_width(intent):
        app.set_width(intent.args["stage"], intent.args["width"])
        return (intent.args["stage"],)

    row = IntentRow(params.widen_cost, set_width)
    return {"widenStage": row, "narrowStage": row}


@register_scenario(
    "pipeline",
    params=PipelineParams,
    description="batch pipeline: widen on backlog, narrow when idle",
)
class PipelineExperiment(ScenarioExperiment):
    """One wired pipeline run (control or adapted), ready to run."""

    RESULT = PipelineResult
    params: PipelineParams

    def setup(self) -> None:
        params = self.params
        self.app = PipelineApplication(self.sim, params.stages, trace=self.trace)
        horizon = self.config.horizon
        rate = burst(params.baseline_rate, params.burst_rate, horizon / 6, horizon / 2)
        self.sources.append(
            Arrivals(
                self.sim,
                rate,
                rng=self.seeds.rng("pipeline.source"),
                submit=self.app.submit,
                name="pipeline-source",
            )
        )

    def architecture(self):
        model = build_pipeline_model(
            "PipelineModel", self.app.stage_order, family=build_pipeline_family()
        )
        for stage in self.app.stages:
            comp = model.component(stage.name)
            comp.set_property("width", stage.width)
            # the initial width is the designed floor the shrink repair
            # may narrow an over-widened stage back down to
            comp.set_property("minWidth", stage.width)
            comp.set_property("serviceRate", stage.service_rate)
        return model

    def intents(self) -> Dict[str, IntentRow]:
        return pipeline_intents(self.app, self.params)

    def series(self):
        """``backlog.<stage>``, ``width.<stage>`` and ``repair.active``."""
        for stage in self.app.stages:
            yield f"backlog.{stage.name}", "items", lambda s=stage: s.backlog
            yield f"width.{stage.name}", "workers", lambda s=stage: s.width
        yield "repair.active", "", self.repair_active

    def _adaptation_spec(self) -> AdaptationSpec:
        params = self.params
        app = self.app

        def occupancy(name: str) -> float:
            stage = app.stage(name)
            return stage.busy / max(1, stage.width)

        report = {"period": params.gauge_period}
        instruments = monitoring_table(
            app.stage_order,
            [
                (
                    "backlog",
                    app.backlog,
                    WindowedMeanGauge,
                    {**report, "horizon": params.load_horizon},
                ),
                ("utilization", occupancy, EwmaGauge, report),
            ],
            period=params.load_probe_period,
        )
        return AdaptationSpec(
            style="PipelineFam",
            dsl_source=PIPELINE_DSL,
            invariant_scopes={"b": "FilterT", "u": "FilterT"},
            bindings={
                "maxBacklog": params.max_backlog,
                "lowWater": params.low_water,
                "minUtilization": params.min_utilization,
            },
            operators=lambda rt: pipeline_operators(
                worker_budget=params.worker_budget
            ),
            instruments=instruments,
            gauge_property_map={"backlog": "backlog", "utilization": "utilization"},
            delivery=FixedDelay(0.05),
            **params.spec_settings(self.config.seed),
        )
