"""The ``master_worker`` scenario: a grid task farm, same control plane.

This module is the scenario-neutral experiment API's proof: a third
application family registered **purely through the public surface** —
``register_scenario(name, params=...)``, a typed frozen
:class:`MasterWorkerParams` block, the generic
:class:`~repro.monitoring.probes.CallbackProbe` / value gauges, the
generic :class:`~repro.runtime.updater.PropertyUpdater`, and a
:class:`~repro.experiment.result.RunResult` subclass — with zero new
control-plane machinery.

The workload is the ROADMAP's task farm: a Poisson task stream whose
rate bursts above the pool's capacity mid-run (the Figure 7 stress
phase, transposed), with a small fraction of **straggler** tasks whose
service demand is multiplied by a heavy tail.  Three repairs drive it:

* ``growPool`` widens the pool while the master's queue violates
  ``maxBacklog`` (within a worker budget);
* ``rescueStraggler`` re-dispatches the longest-running task once its
  age crosses ``maxTaskAge`` — on re-dispatch it draws a *fresh* service
  time (it moved to a healthy node);
* ``shrinkPool`` releases surplus workers one settle period at a time
  once the burst passes and the pool idles under ``minUtilization``.

The control run processes the identical seeded task set with no
adaptation: stragglers pin workers for their full inflated demand and
the burst backlog never drains, so the adapted run completes strictly
more work and ends back at its designed pool size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.app.master_worker_app import MasterWorkerApplication
from repro.bus.bus import FixedDelay
from repro.experiment.base import ScenarioExperiment
from repro.experiment.config import RunConfig
from repro.experiment.params import ScenarioParams
from repro.experiment.result import RunResult
from repro.experiment.scenarios import register_scenario
from repro.experiment.workload import Arrivals, burst
from repro.monitoring.gauges import EwmaGauge, LatestValueGauge, WindowedMeanGauge
from repro.runtime import AdaptationSpec
from repro.runtime.spec import monitoring_table
from repro.styles.master_worker import (
    MASTER_WORKER_DSL,
    build_master_worker_family,
    build_master_worker_model,
    master_worker_operators,
)
from repro.translation import IntentRow

__all__ = [
    "MasterWorkerParams",
    "MasterWorkerResult",
    "MasterWorkerExperiment",
    "master_worker_intents",
]


@dataclass(frozen=True)
class MasterWorkerParams(ScenarioParams):
    """The task-farm scenario's typed knob block."""

    # pool shape
    workers: int = 4  # initial (and designed minimum) pool size
    min_workers: int = 4
    max_workers: int = 12  # the grow repair's budget

    # task service model
    service_mean: float = 2.0  # s per task (exponential)
    straggler_prob: float = 0.02  # fraction of tasks that straggle
    straggler_factor: float = 25.0  # demand multiplier for stragglers

    # workload: Poisson arrivals bursting above pool capacity mid-run
    baseline_rate: float = 1.0  # tasks/s (capacity: workers/service_mean)
    burst_rate: float = 4.5  # tasks/s, needs ~9 workers

    # thresholds
    max_backlog: float = 20.0  # queueBound invariant
    max_task_age: float = 15.0  # stragglerBound invariant (>> p99 service)
    min_utilization: float = 0.55  # idlePool invariant
    low_water: float = 2.0  # never shrink while work still queues

    # monitoring
    probe_period: float = 1.0
    gauge_period: float = 5.0
    load_horizon: float = 30.0
    utilization_tau: float = 60.0

    # translation costs
    spin_up_cost: float = 6.0  # s to provision one worker
    redispatch_cost: float = 1.0  # s to move a task to another worker
    redeploy_window: float = 10.0  # gauge blindness after a pool resize

    # repair machinery
    gauge_caching: bool = False
    settle_time: float = 20.0
    failed_repair_cost: float = 2.0
    violation_policy: str = "first"

    def validate(self, config: "RunConfig") -> None:
        self._require(
            1 <= self.min_workers <= self.workers <= self.max_workers,
            "pool sizes must satisfy 1 <= min_workers <= workers <= "
            "max_workers",
        )
        self._positive("service_mean")
        self._require(
            0.0 <= self.straggler_prob < 1.0, "straggler_prob must be in [0, 1)"
        )
        self._at_least(1, "straggler_factor")
        self._check_rates("baseline_rate", "burst_rate")
        self._positive(
            "probe_period", "gauge_period", "load_horizon", "utilization_tau"
        )


@dataclass
class MasterWorkerResult(RunResult):
    """The task-farm run, plus its pool/straggler views."""

    rescues: int = 0
    straggler_tasks: int = 0

    @property
    def peak_pool(self) -> float:
        return float(self.s("pool.size").values.max())

    @property
    def final_pool(self) -> float:
        return float(self.s("pool.size").values[-1])

    def extras(self) -> Dict[str, Any]:
        return {
            "rescues": self.rescues,
            "straggler_tasks": self.straggler_tasks,
            "peak_pool": self.peak_pool,
            "final_pool": self.final_pool,
        }


def master_worker_intents(
    app: MasterWorkerApplication, params: MasterWorkerParams
) -> Dict[str, IntentRow]:
    """Pool resizes and re-dispatches, replayed onto the farm.

    A resize blinds the pool's gauges; a re-dispatch leaves monitoring
    alone — the age probe re-measures on its next sample.
    """

    def resize(intent):
        app.set_pool_size(intent.args["size"])
        return (intent.args["pool"],)

    def redispatch(intent):
        app.redispatch_oldest()

    return {
        "addWorkers": IntentRow(params.spin_up_cost, resize),
        "removeWorkers": IntentRow(0.0, resize),  # releasing a worker is free
        "redispatchOldest": IntentRow(params.redispatch_cost, redispatch),
    }


@register_scenario(
    "master_worker",
    params=MasterWorkerParams,
    description="task farm: straggler re-dispatch, pool grow/shrink",
)
class MasterWorkerExperiment(ScenarioExperiment):
    """One wired task-farm run (control or adapted), ready to run."""

    RESULT = MasterWorkerResult
    params: MasterWorkerParams

    def setup(self) -> None:
        params = self.params
        self.app = MasterWorkerApplication(
            self.sim,
            workers=params.workers,
            service_mean=params.service_mean,
            straggler_prob=params.straggler_prob,
            straggler_factor=params.straggler_factor,
            task_rng=self.seeds.rng("master_worker.tasks"),
            rescue_rng=self.seeds.rng("master_worker.rescue"),
            trace=self.trace,
        )
        horizon = self.config.horizon
        rate = burst(params.baseline_rate, params.burst_rate, horizon / 6, horizon / 2)
        self.sources.append(
            Arrivals(
                self.sim,
                rate,
                rng=self.seeds.rng("master_worker.source"),
                submit=self.app.submit,
                name="master-worker-source",
            )
        )

    def architecture(self):
        return build_master_worker_model(
            "FarmModel",
            pool_size=self.app.pool_size,
            min_size=self.params.min_workers,
            family=build_master_worker_family(),
        )

    def intents(self) -> Dict[str, IntentRow]:
        return master_worker_intents(self.app, self.params)

    def series(self):
        """Ground truth: queue depth, pool size, occupancy, oldest task."""
        app, sim = self.app, self.sim
        return (
            ("queue.length", "tasks", lambda: app.queue_length),
            ("pool.size", "workers", lambda: app.pool_size),
            ("pool.utilization", "", app.utilization),
            ("oldest.age", "s", lambda: app.oldest_age(sim.now)),
            ("repair.active", "", self.repair_active),
        )

    def _adaptation_spec(self) -> AdaptationSpec:
        params = self.params
        app = self.app
        sim = self.sim
        instruments = monitoring_table(
            ["pool"],
            [
                (
                    "backlog",
                    lambda _: app.queue_length,
                    WindowedMeanGauge,
                    {"period": params.gauge_period, "horizon": params.load_horizon},
                ),
                (
                    "utilization",
                    lambda _: app.utilization(),
                    EwmaGauge,
                    {"period": params.gauge_period, "tau": params.utilization_tau},
                ),
                (
                    "age",
                    lambda _: app.oldest_age(sim.now),
                    LatestValueGauge,
                    {"period": params.gauge_period},
                ),
            ],
            period=params.probe_period,
        )
        return AdaptationSpec(
            style="MasterWorkerFam",
            dsl_source=MASTER_WORKER_DSL,
            invariant_scopes={
                "q": "WorkerPoolT",
                "s": "WorkerPoolT",
                "u": "WorkerPoolT",
            },
            bindings={
                "maxBacklog": params.max_backlog,
                "growStep": 1,
                "maxTaskAge": params.max_task_age,
                "minUtilization": params.min_utilization,
                "lowWater": params.low_water,
            },
            operators=lambda rt: master_worker_operators(
                max_workers=params.max_workers
            ),
            instruments=instruments,
            gauge_property_map={
                "backlog": "backlog",
                "utilization": "utilization",
                "age": "oldestAge",
            },
            delivery=FixedDelay(0.05),
            **params.spec_settings(self.config.seed),
        )

    def outcome(self, stats) -> Dict[str, Any]:
        return {
            **super().outcome(stats),
            "rescues": self.app.rescues,
            "straggler_tasks": self.app.straggler_tasks,
        }
