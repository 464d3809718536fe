"""The ``map_reduce`` scenario: shuffle skew, and the monitoring fan-in showcase.

Like :mod:`repro.experiment.master_worker_scenario` (the template), this
module registers a whole application family **purely through the public
API** — ``register_scenario(name, params=...)``, a typed frozen
:class:`MapReduceParams` block, the generic
:class:`~repro.monitoring.probes.CallbackProbe` / value gauges, the
generic :class:`~repro.runtime.updater.PropertyUpdater`, and a
:class:`~repro.experiment.result.RunResult` subclass.

The workload is a mapper pool emitting **Zipf-keyed** records through a
shuffle into reducer partitions: one key-group dominates, so the
partition that owns it drags a disproportionate *share* of the shuffle
while the other reducers idle.  The ``skewedShuffle`` invariant fires on
the hot partition; its strategy tries ``splitPartition`` (reassign the
colder half of the keyspace — the structural fix) and falls back to
``stealWork`` (migrate queued records to the least-loaded reducer) once
the partition is a single irreducibly hot key-group.

The scenario doubles as the **monitoring fan-in showcase**: three
probe/gauge pairs per reducer (backlog, share, keys) produce the
heaviest monitoring fan-in of any built-in scenario, all on the bus's
one delivery path (the deliveries due at one instant are one kernel
run).

Its probes buffer one gauge period's worth of samples and flush them as
a single batch message, which each backlog gauge folds into its sliding
window in one call, and gauge reports only wake the constraint checker
when a share/backlog aggregate crosses its invariant threshold
(hysteresis band ``wake_band``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.app.map_reduce_app import MapReduceApplication
from repro.bus.bus import FixedDelay
from repro.experiment.base import (
    CostedIntentExecutor,
    PeriodicSampler,
    ScenarioExperiment,
)
from repro.experiment.config import RunConfig
from repro.experiment.params import ScenarioParams
from repro.experiment.result import RunResult
from repro.experiment.scenarios import register_scenario
from repro.experiment.workload import BurstArrivals
from repro.monitoring.gauges import LatestValueGauge, WindowedMeanGauge
from repro.monitoring.manager import WakeThreshold
from repro.monitoring.probes import CallbackProbe
from repro.runtime import (
    AdaptationRuntime,
    AdaptationSpec,
    GaugeBinding,
    ManagedApplication,
    ProbeBinding,
)
from repro.styles.map_reduce import (
    MAP_REDUCE_DSL,
    build_map_reduce_family,
    build_map_reduce_model,
    map_reduce_operators,
)

__all__ = [
    "MapReduceParams",
    "MapReduceResult",
    "MapReduceExperiment",
    "MapReduceManagedApplication",
    "MapReduceTranslator",
]


@dataclass(frozen=True)
class MapReduceParams(ScenarioParams):
    """The shuffle-skew scenario's typed knob block."""

    # job shape
    mappers: int = 2          # mapper pool width
    reducers: int = 8         # shuffle partitions (R0..R{n-1})
    keys: int = 32            # key-groups, round-robin assigned initially
    zipf_s: float = 1.1       # key-distribution exponent (heavier = hotter)

    # record service model
    map_service: float = 0.05     # s per record in a mapper (exponential)
    reduce_service: float = 0.8   # s per record in a reducer (exponential)
    reducer_width: int = 2        # workers per reducer partition

    # workload: Poisson record stream bursting mid-run
    baseline_rate: float = 4.0   # records/s (hot partition stays afloat)
    burst_rate: float = 12.0     # records/s (hot partition saturates)

    # thresholds
    max_share: float = 0.25    # skewedShuffle bound on the backlog share
    low_backlog: float = 10.0  # skew below this backlog is not actionable

    # monitoring
    probe_period: float = 1.0
    gauge_period: float = 5.0
    backlog_horizon: float = 15.0

    # checker wakeups are gated on threshold crossings, with hysteresis
    wake_band: float = 0.1  # band, as a fraction of each threshold

    # translation costs
    split_cost: float = 3.0       # s to re-partition the keyspace
    steal_cost: float = 2.0       # s to migrate half a queue
    redeploy_window: float = 10.0  # gauge blindness after a split

    # repair machinery
    gauge_caching: bool = False
    settle_time: float = 20.0
    failed_repair_cost: float = 2.0
    violation_policy: str = "first"

    def reducer_names(self) -> List[str]:
        return [f"R{i}" for i in range(self.reducers)]

    def validate(self, config: "RunConfig") -> None:
        self._require(self.mappers >= 1, "mappers must be >= 1")
        self._require(self.reducers >= 2, "reducers must be >= 2")
        self._require(self.keys >= self.reducers, "need at least one key per reducer")
        self._require(self.zipf_s > 0, "zipf_s must be positive")
        self._require(self.map_service > 0, "map_service must be positive")
        self._require(self.reduce_service > 0, "reduce_service must be positive")
        self._require(self.reducer_width >= 1, "reducer_width must be >= 1")
        self._require(self.baseline_rate > 0, "baseline_rate must be positive")
        self._require(self.burst_rate > 0, "burst_rate must be positive")
        self._require(0.0 < self.max_share <= 1.0, "max_share must be in (0, 1]")
        self._require(self.low_backlog >= 0, "low_backlog must be >= 0")
        self._require(self.probe_period > 0, "probe_period must be positive")
        self._require(self.gauge_period > 0, "gauge_period must be positive")
        self._require(self.wake_band >= 0, "wake_band must be >= 0")
        self._check_policy(self.violation_policy)


@dataclass
class MapReduceResult(RunResult):
    """The shuffle-skew run, plus its partition and rebalance views."""

    splits: int = 0
    steals: int = 0
    moved_keys: int = 0
    stolen_records: int = 0

    @property
    def reducers(self) -> List[str]:
        """Reducer names, parsed from the ``backlog.R*`` series."""
        return sorted(
            (n.split(".", 1)[1] for n in self.series if n.startswith("backlog.R")),
            key=lambda name: (len(name), name),
        )

    def peak_backlog(self) -> Dict[str, float]:
        return {
            reducer: float(self.s(f"backlog.{reducer}").values.max())
            for reducer in self.reducers
        }

    @property
    def peak_skew(self) -> float:
        """Highest observed backlog share of any partition."""
        return float(self.s("share.max").values.max())

    def extras(self) -> Dict[str, Any]:
        return {
            "reducers": self.reducers,
            "splits": self.splits,
            "steals": self.steals,
            "moved_keys": self.moved_keys,
            "stolen_records": self.stolen_records,
            "peak_skew": self.peak_skew,
            "peak_backlog": self.peak_backlog(),
        }


class MapReduceTranslator(CostedIntentExecutor):
    """Replays committed keyspace splits and work steals on the job.

    Both operations pause for a coordination cost (re-partitioning the
    shuffle, migrating queued records); a split additionally blanks the
    two affected reducers' gauges for the redeployment window — the
    shuffle routing changed under them, so their shares are stale.
    """

    INTENT_OPS = frozenset({"splitPartition", "stealWork"})

    def cost(self, intent) -> float:
        if intent.op == "splitPartition":
            return self.params.split_cost
        return self.params.steal_cost

    def apply(self, intent) -> None:
        hot, dest = intent.args["reducer"], intent.args["dest"]
        if intent.op == "splitPartition":
            self.app.split_keys(hot, dest)
            self.redeploy(hot)
            self.redeploy(dest)
        else:
            self.app.steal_queued(hot, dest)


class MapReduceManagedApplication(ManagedApplication):
    """The map/reduce job wrapped for the adaptation runtime."""

    name = "map-reduce-job"

    def __init__(self, app: MapReduceApplication, params: MapReduceParams):
        self.app = app
        self.params = params

    def architecture(self):
        reducers = self.app.reducer_names
        return build_map_reduce_model(
            "ShuffleModel",
            reducers=reducers,
            keys_per_reducer=[self.app.key_count(r) for r in reducers],
            family=build_map_reduce_family(),
        )

    def intent_executor(self, runtime: AdaptationRuntime) -> MapReduceTranslator:
        return MapReduceTranslator(
            self.app,
            self.params,
            gauge_manager=runtime.gauge_manager,
            trace=runtime.trace,
        )


class MapReduceMetricsSampler(PeriodicSampler):
    """Ground truth: per-reducer backlog, max share, mapper queue."""

    def series_table(self):
        yield "mapper.backlog", "records"
        yield "share.max", ""
        yield "completed.total", "records"
        yield "repair.active", ""
        for reducer in self.experiment.app.reducer_names:
            yield f"backlog.{reducer}", "records"

    def sample(self) -> None:
        app = self.experiment.app
        for reducer in app.reducer_names:
            self.record(f"backlog.{reducer}", float(app.backlog(reducer)))
        self.record("mapper.backlog", float(app.mapper_backlog()))
        self.record("share.max", max(app.share(r) for r in app.reducer_names))
        self.record("completed.total", float(app.completed))
        self.record("repair.active", self.repair_active())


@register_scenario(
    "map_reduce",
    params=MapReduceParams,
    description="map/reduce shuffle skew: split partitions, steal work",
)
class MapReduceExperiment(ScenarioExperiment):
    """One wired shuffle-skew run (control or adapted), ready to run."""

    RESULT = MapReduceResult
    SAMPLER = MapReduceMetricsSampler
    params: MapReduceParams

    def setup(self) -> None:
        params = self.params
        self.app = MapReduceApplication(
            self.sim,
            mappers=params.mappers,
            reducers=params.reducers,
            keys=params.keys,
            zipf_s=params.zipf_s,
            map_service=params.map_service,
            reduce_service=params.reduce_service,
            reducer_width=params.reducer_width,
            record_rng=self.seeds.rng("map_reduce.records"),
            trace=self.trace,
        )
        self.sources.append(
            BurstArrivals(
                self.sim,
                horizon=self.config.horizon,
                baseline_rate=params.baseline_rate,
                burst_rate=params.burst_rate,
                rng=self.seeds.rng("map_reduce.source"),
                submit=self.app.submit,
                name="map-reduce-source",
            )
        )

    def managed_application(self) -> MapReduceManagedApplication:
        return MapReduceManagedApplication(self.app, self.params)

    def _adaptation_spec(self) -> AdaptationSpec:
        params = self.params
        app = self.app
        # One probe flush per gauge period: the gauge takes one delivery
        # per report interval instead of one per sample.
        batch = max(1, int(round(params.gauge_period / params.probe_period)))
        instruments: List = []
        for reducer in app.reducer_names:
            instruments.extend(
                [
                    ProbeBinding(
                        lambda rt, r=reducer: CallbackProbe(
                            rt.sim,
                            rt.probe_bus,
                            "backlog",
                            r,
                            lambda r=r: app.backlog(r),
                            period=params.probe_period,
                            batch=batch,
                        ),
                        periodic=True,
                    ),
                    GaugeBinding(
                        lambda rt, r=reducer: WindowedMeanGauge(
                            rt.sim,
                            rt.probe_bus,
                            rt.gauge_bus,
                            "backlog",
                            r,
                            period=params.gauge_period,
                            horizon=params.backlog_horizon,
                        ),
                        entities=[reducer],
                    ),
                    ProbeBinding(
                        lambda rt, r=reducer: CallbackProbe(
                            rt.sim,
                            rt.probe_bus,
                            "share",
                            r,
                            lambda r=r: app.share(r),
                            period=params.probe_period,
                            batch=batch,
                        ),
                        periodic=True,
                    ),
                    GaugeBinding(
                        lambda rt, r=reducer: LatestValueGauge(
                            rt.sim,
                            rt.probe_bus,
                            rt.gauge_bus,
                            "share",
                            r,
                            period=params.gauge_period,
                        ),
                        entities=[reducer],
                    ),
                    ProbeBinding(
                        lambda rt, r=reducer: CallbackProbe(
                            rt.sim,
                            rt.probe_bus,
                            "keys",
                            r,
                            lambda r=r: app.key_count(r),
                            period=params.probe_period,
                            batch=batch,
                        ),
                        periodic=True,
                    ),
                    GaugeBinding(
                        lambda rt, r=reducer: LatestValueGauge(
                            rt.sim,
                            rt.probe_bus,
                            rt.gauge_bus,
                            "keys",
                            r,
                            period=params.gauge_period,
                        ),
                        entities=[reducer],
                    ),
                ]
            )
        # Wake the checker only on threshold crossings.  "keys" reports
        # are informational — a math.inf threshold never crosses, so they
        # update the model without waking the checker.
        wake_thresholds = {
            "share": WakeThreshold(
                params.max_share, band=params.wake_band * params.max_share
            ),
            "backlog": WakeThreshold(
                params.low_backlog, band=params.wake_band * params.low_backlog
            ),
            "keys": WakeThreshold(math.inf),
        }
        return AdaptationSpec(
            style="MapReduceFam",
            dsl_source=MAP_REDUCE_DSL,
            invariant_scopes={"k": "ReducerT"},
            bindings={"maxShare": params.max_share, "lowBacklog": params.low_backlog},
            operators=lambda rt: map_reduce_operators(),
            instruments=instruments,
            gauge_property_map={"backlog": "backlog", "share": "share", "keys": "keys"},
            delivery=FixedDelay(0.05),
            gauge_caching=params.gauge_caching,
            settle_time=params.settle_time,
            failed_repair_cost=params.failed_repair_cost,
            violation_policy=params.violation_policy,
            wake_thresholds=wake_thresholds,
        )

    def outcome(self, stats) -> Dict[str, Any]:
        return {
            **super().outcome(stats),
            "splits": self.app.splits,
            "steals": self.app.steals,
            "moved_keys": self.app.moved_keys,
            "stolen_records": self.app.stolen_records,
        }
