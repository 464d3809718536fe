"""The ``map_reduce`` scenario: shuffle skew, and the monitoring fan-in showcase.

Like :mod:`repro.experiment.master_worker_scenario` (the template), this
module registers a whole application family **purely through the public
API** — ``register_scenario(name, params=...)``, a typed frozen
:class:`MapReduceParams` block, a monitoring table
(:func:`~repro.runtime.spec.monitoring_table`), the
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
from functools import partial
from typing import Any, Dict

from repro.app.map_reduce_app import MapReduceApplication
from repro.bus.bus import FixedDelay
from repro.experiment.base import ScenarioExperiment
from repro.experiment.config import RunConfig
from repro.experiment.params import ScenarioParams
from repro.experiment.result import RunResult
from repro.experiment.scenarios import register_scenario
from repro.experiment.workload import Arrivals, burst
from repro.monitoring.gauges import LatestValueGauge, WindowedMeanGauge
from repro.monitoring.manager import WakeThreshold
from repro.runtime import AdaptationSpec
from repro.runtime.spec import monitoring_table
from repro.styles.map_reduce import (
    MAP_REDUCE_DSL,
    build_map_reduce_family,
    build_map_reduce_model,
    map_reduce_operators,
)
from repro.translation import IntentRow

__all__ = [
    "MapReduceParams",
    "MapReduceResult",
    "MapReduceExperiment",
    "map_reduce_intents",
]


@dataclass(frozen=True)
class MapReduceParams(ScenarioParams):
    """The shuffle-skew scenario's typed knob block."""

    # job shape
    mappers: int = 2  # mapper pool width
    reducers: int = 8  # shuffle partitions (R0..R{n-1})
    keys: int = 32  # key-groups, round-robin assigned initially
    zipf_s: float = 1.1  # key-distribution exponent (heavier = hotter)

    # record service model
    map_service: float = 0.05  # s per record in a mapper (exponential)
    reduce_service: float = 0.8  # s per record in a reducer (exponential)
    reducer_width: int = 2  # workers per reducer partition

    # workload: Poisson record stream bursting mid-run
    baseline_rate: float = 4.0  # records/s (hot partition stays afloat)
    burst_rate: float = 12.0  # records/s (hot partition saturates)

    # thresholds
    max_share: float = 0.25  # skewedShuffle bound on the backlog share
    low_backlog: float = 10.0  # skew below this backlog is not actionable

    # monitoring
    probe_period: float = 1.0
    gauge_period: float = 5.0
    backlog_horizon: float = 15.0

    # checker wakeups are gated on threshold crossings, with hysteresis
    wake_band: float = 0.1  # band, as a fraction of each threshold

    # translation costs
    split_cost: float = 3.0  # s to re-partition the keyspace
    steal_cost: float = 2.0  # s to migrate half a queue
    redeploy_window: float = 10.0  # gauge blindness after a split

    # repair machinery
    gauge_caching: bool = False
    settle_time: float = 20.0
    failed_repair_cost: float = 2.0
    violation_policy: str = "first"

    def reducer_names(self) -> List[str]:
        return [f"R{i}" for i in range(self.reducers)]

    def validate(self, config: "RunConfig") -> None:
        self._at_least(1, "mappers")
        self._at_least(2, "reducers")
        self._require(
            self.keys >= self.reducers,
            "keys must be >= reducers (need at least one key per reducer)",
        )
        self._positive("zipf_s", "map_service", "reduce_service")
        self._at_least(1, "reducer_width")
        self._check_rates("baseline_rate", "burst_rate")
        self._require(0.0 < self.max_share <= 1.0, "max_share must be in (0, 1]")
        self._at_least(0, "low_backlog")
        self._positive("probe_period", "gauge_period", "backlog_horizon")

    def wake_thresholds(self) -> Dict[str, WakeThreshold]:
        """Share and backlog wake the checker on their invariant
        thresholds; a math.inf threshold never crosses, so "keys"
        reports update the model without waking it."""
        return {
            "share": self._wake_threshold("max_share"),
            "backlog": self._wake_threshold("low_backlog"),
            "keys": WakeThreshold(math.inf),
        }


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


def map_reduce_intents(
    app: MapReduceApplication, params: MapReduceParams
) -> Dict[str, IntentRow]:
    """Keyspace splits and work steals, replayed onto the job.

    Both pause for a coordination cost (re-partitioning the shuffle,
    migrating queued records); a split also blinds the two reducers'
    gauges — the shuffle routing changed under them, so their shares are
    stale.
    """

    def split(intent):
        hot, dest = intent.args["reducer"], intent.args["dest"]
        app.split_keys(hot, dest)
        return (hot, dest)

    def steal(intent):
        app.steal_queued(intent.args["reducer"], intent.args["dest"])

    return {
        "splitPartition": IntentRow(params.split_cost, split),
        "stealWork": IntentRow(params.steal_cost, steal),
    }


@register_scenario(
    "map_reduce",
    params=MapReduceParams,
    description="map/reduce shuffle skew: split partitions, steal work",
)
class MapReduceExperiment(ScenarioExperiment):
    """One wired shuffle-skew run (control or adapted), ready to run."""

    RESULT = MapReduceResult
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
        horizon = self.config.horizon
        rate = burst(params.baseline_rate, params.burst_rate, horizon / 6, horizon / 2)
        self.sources.append(
            Arrivals(
                self.sim,
                rate,
                rng=self.seeds.rng("map_reduce.source"),
                submit=self.app.submit,
                name="map-reduce-source",
            )
        )

    def architecture(self):
        reducers = self.app.reducer_names
        return build_map_reduce_model(
            "ShuffleModel",
            reducers=reducers,
            keys_per_reducer=[self.app.key_count(r) for r in reducers],
            family=build_map_reduce_family(),
        )

    def intents(self) -> Dict[str, IntentRow]:
        return map_reduce_intents(self.app, self.params)

    def series(self):
        """Ground truth: per-reducer backlog, max share, mapper queue."""
        app = self.app
        yield "mapper.backlog", "records", app.mapper_backlog
        yield "share.max", "", lambda: max(map(app.share, app.reducer_names))
        yield "completed.total", "records", lambda: app.completed
        yield "repair.active", "", self.repair_active
        for reducer in app.reducer_names:
            yield f"backlog.{reducer}", "records", partial(app.backlog, reducer)

    def _adaptation_spec(self) -> AdaptationSpec:
        params = self.params
        app = self.app
        # One probe flush per gauge period: the gauge takes one delivery
        # per report interval instead of one per sample.
        batch = max(1, int(round(params.gauge_period / params.probe_period)))
        report = {"period": params.gauge_period}
        instruments = monitoring_table(
            app.reducer_names,
            [
                (
                    "backlog",
                    app.backlog,
                    WindowedMeanGauge,
                    {**report, "horizon": params.backlog_horizon},
                ),
                ("share", app.share, LatestValueGauge, report),
                ("keys", app.key_count, LatestValueGauge, report),
            ],
            period=params.probe_period,
            batch=batch,
        )
        return AdaptationSpec(
            style="MapReduceFam",
            dsl_source=MAP_REDUCE_DSL,
            invariant_scopes={"k": "ReducerT"},
            bindings={"maxShare": params.max_share, "lowBacklog": params.low_backlog},
            operators=lambda rt: map_reduce_operators(),
            instruments=instruments,
            gauge_property_map={"backlog": "backlog", "share": "share", "keys": "keys"},
            delivery=FixedDelay(0.05),
            **params.spec_settings(self.config.seed),
        )

    def outcome(self, stats) -> Dict[str, Any]:
        return {
            **super().outcome(stats),
            "splits": self.app.splits,
            "steals": self.app.steals,
            "moved_keys": self.app.moved_keys,
            "stolen_records": self.app.stolen_records,
        }
