#!/usr/bin/env python
"""Wrapping *your own* application with the AdaptationRuntime.

The control plane (buses, gauges, constraint checking, repair dispatch,
translation scheduling) is application-independent; to adapt a new
application you write two small pieces and one class:

1. a repair DSL (invariant + strategy + tactic) and one style operator;
2. an intent table (op -> cost, runtime operation);
3. one ``ScenarioExperiment`` subclass, registered with a typed frozen
   params block.  The experiment *is* the ``ManagedApplication`` its
   runtime adapts: it builds the app, snapshots it as a style family's
   model, hands its intent table to the shared executor (``intents()``;
   gauges go blind for the block's ``redeploy_window``), names the
   thresholds and a monitoring table in an ``AdaptationSpec``, and lists
   the ground truth to sample.

Bounds are checked once, when the config resolves: the engine checks
its policy knobs, a value object (a retry policy, a wake threshold) its
own fields, and the block's ``validate`` only what no one else owns;
``**params.spec_settings(seed)`` hands a block's engine knobs to the spec.

``register_scenario`` makes the app drivable through
``repro.api.run(RunConfig(...))``, the shared result cache, and the
``python -m repro`` CLI — exactly how the built-in scenarios are
registered.  The shared skeleton owns the simulator, the "build a
runtime iff adaptation" rule, the run order, the sampling loop, result
assembly and ``runtime.stop()``; you supply hooks.

Everything here is self-contained: a toy job queue whose worker pool is
grown whenever its depth gauge crosses the threshold.

Run:  python examples/adapt_your_own_app.py
"""

from dataclasses import dataclass
from typing import ClassVar

from repro import api
from repro.acme.family import Family
from repro.acme.system import ArchSystem
from repro.errors import TacticFailure
from repro.experiment import (
    RunConfig,
    ScenarioExperiment,
    ScenarioParams,
    register_scenario,
)
from repro.monitoring.gauges import WindowedMeanGauge
from repro.runtime import AdaptationSpec, monitoring_table
from repro.sim import Process
from repro.translation import IntentRow

# ---------------------------------------------------------------------------
# 0. The application being adapted: a job queue with a worker pool
# ---------------------------------------------------------------------------


class JobQueueApp:
    """Jobs arrive continuously; ``workers`` drain them concurrently."""

    def __init__(self, sim, workers=2, service_time=1.0, arrival_interval=0.25):
        self.sim = sim
        self.workers = workers
        self.service_time = service_time
        self.arrival_interval = arrival_interval
        self.depth = 0  # waiting jobs
        self.busy = 0
        self.completed = 0
        Process(sim, self._arrivals(), name="jobs")

    def _arrivals(self):
        while True:
            yield self.sim.timeout(self.arrival_interval)
            self.depth += 1
            self._pump()

    def _pump(self):
        while self.busy < self.workers and self.depth > 0:
            self.depth -= 1
            self.busy += 1
            self.sim.schedule(self.service_time, self._done)

    def _done(self):
        self.busy -= 1
        self.completed += 1
        self._pump()

    def grow(self, workers: int) -> None:  # the one runtime change operator
        self.workers = workers
        self._pump()


# ---------------------------------------------------------------------------
# 1. Repair DSL + style operator
# ---------------------------------------------------------------------------

QUEUE_DSL = """
invariant q : depth <= maxDepth ! -> fixDepth(q);

strategy fixDepth(badPool : WorkerPoolT) = {
    if (growPool(badPool)) {
        commit repair;
    } else {
        abort NoCapacity;
    }
}

tactic growPool(pool : WorkerPoolT) : boolean = {
    if (pool.depth <= maxDepth) {
        return false;
    }
    pool.addWorker(1);
    return true;
}
"""


def queue_operators(worker_cap=8):
    def op_add_worker(ctx, pool, amount=1):
        new_workers = int(pool.get_property("workers")) + int(amount)
        if new_workers > worker_cap:
            raise TacticFailure(f"addWorker: cap {worker_cap} reached")
        pool.set_property("workers", new_workers)
        ctx.intend("addWorker", pool=pool.name, workers=new_workers)
        return new_workers

    return {"addWorker": op_add_worker}


# ---------------------------------------------------------------------------
# 2. The intent table: op -> (seconds charged first, runtime operation)
# ---------------------------------------------------------------------------


def queue_intents(app: JobQueueApp):
    def grow(intent):
        app.grow(intent.args["workers"])
        return [intent.args["pool"]]  # whose gauges go blind while redeploying

    return {"addWorker": IntentRow(3.0, grow)}  # 3 s to provision a worker


# ---------------------------------------------------------------------------
# 3. One scenario class: typed params + the experiment, which is also the
#    ManagedApplication its runtime adapts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobQueueParams(ScenarioParams):
    """The job queue's typed knob block (frozen -> cacheable)."""

    workers: int = 2
    service_time: float = 1.0
    arrival_interval: float = 0.25
    max_depth: float = 10.0
    worker_cap: int = 8
    #: s of gauge blindness after a grow (a constant, not a knob)
    redeploy_window: ClassVar[float] = 2.0


@register_scenario(
    "job_queue",
    params=JobQueueParams,
    description="toy job queue (examples/adapt_your_own_app.py)",
)
class JobQueueExperiment(ScenarioExperiment):
    """One wired job-queue run: the app, its model, executor, spec, truth."""

    def setup(self) -> None:
        params = self.params
        self.app = JobQueueApp(
            self.sim,
            workers=params.workers,
            service_time=params.service_time,
            arrival_interval=params.arrival_interval,
        )

    def architecture(self) -> ArchSystem:
        fam = Family("QueueFam")
        (
            fam.component_type("WorkerPoolT")
            .declare_property("depth", "float", 0.0)
            .declare_property("workers", "int", 1)
        )
        model = ArchSystem("QueueModel", family=fam.name)
        pool = model.new_component("pool", ["WorkerPoolT"])
        fam.initialize(pool)
        pool.set_property("workers", self.app.workers)
        return model

    def intents(self):
        # replayed by the one executor the base class builds
        return queue_intents(self.app)

    def _adaptation_spec(self) -> AdaptationSpec:
        app, params = self.app, self.params
        return AdaptationSpec(
            style="QueueFam",
            dsl_source=QUEUE_DSL,
            invariant_scopes={"q": "WorkerPoolT"},
            bindings={"maxDepth": params.max_depth},
            operators=lambda rt: queue_operators(worker_cap=params.worker_cap),
            # per target, (kind, read, gauge, gauge args): the pool's depth,
            # sampled every 0.5 s, averaged over 5 s, reported every 1 s
            instruments=monitoring_table(
                ["pool"],
                [
                    (
                        "backlog",
                        lambda _: app.depth,
                        WindowedMeanGauge,
                        {"period": 1.0, "horizon": 5.0},
                    )
                ],
                period=0.5,
            ),
            gauge_property_map={"backlog": "depth"},
            gauge_create_delay=1.0,
            settle_time=4.0,
        )

    def series(self):
        # ground truth the adaptation loop never sees: the real queue depth
        return [("depth", "jobs", lambda: self.app.depth)]

    def outcome(self, stats):
        app = self.app
        return {
            "issued": app.completed + app.depth + app.busy,
            "completed": app.completed,
        }


def main() -> None:
    # Step 4: validate before running.  `repro lint` builds the control
    # plane without executing a single event and checks everything the
    # spec wires — DSL semantics, static footprints, probe/gauge/effector
    # wiring.  A typo'd subject or an intent the executor can't replay
    # surfaces here, not as a silently-flat metric 120 s into a run.
    from repro.lint import lint_scenario

    report = lint_scenario("job_queue")
    if not report.ok:
        for finding in report.findings:
            print(f"lint: {finding}")
        raise SystemExit(1)
    print("lint: job_queue spec is clean")

    # 2 workers at 1 s/job drain 2 jobs/s; arrivals come at 4 jobs/s.
    result = api.run(RunConfig.adapted("job_queue", horizon=120.0))
    app_workers = result.config.params.workers
    print(
        f"workers: {app_workers} -> grown by "
        f"{len(result.history.committed)} repairs"
    )
    print(
        f"completed jobs: {result.completed}, "
        f"final depth: {result.s('depth').values[-1]:.0f}"
    )
    for record in result.history.committed:
        intents = ", ".join(str(i) for i in record.intents)
        print(f"  t={record.started:6.1f}s {record.strategy}: {intents}")

    # ...and the control comparison comes free from the shared front door:
    control = api.run(RunConfig.control("job_queue", horizon=120.0))
    print(
        f"without adaptation the queue ends {control.s('depth').values[-1]:.0f} "
        f"jobs deep (adapted: {result.s('depth').values[-1]:.0f})"
    )


if __name__ == "__main__":
    main()
