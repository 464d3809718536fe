"""The synthetic multi-tenant plane every plane workload drives.

Built through the public API only: an :class:`AdaptationSpec` over
``styles.multi_tenant``'s family / model / DSL / operators, two
:class:`IngestProbe` + gauge pairs per tenant pool (latency through a
:class:`LatestValueGauge`, utilization through an :class:`EwmaGauge`),
columnar telemetry with the multi_tenant wake thresholds, a bench-owned
:class:`ManagedApplication` and a recording :class:`IntentExecutor` as
the effector.

The bench *plays the application*: :class:`BenchApp` holds each pool's
``size`` / ``demand`` / ``load``, the effector writes ``size`` when a
repair lands, and :class:`Telemetry` turns that state plus pre-generated
seeded noise into the next samples — so after an effector call the
pool's next latency samples reflect the new size, and the program only
ever sees generated inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.bus.bus import FixedDelay
from repro.monitoring.gauges import EwmaGauge, LatestValueGauge
from repro.monitoring.manager import WakeThreshold
from repro.monitoring.probes import IngestProbe
from repro.runtime import (
    AdaptationRuntime,
    AdaptationSpec,
    GaugeBinding,
    IntentExecutor,
    ManagedApplication,
    ProbeBinding,
    ShardingSpec,
)
from repro.styles.multi_tenant import (
    MULTI_TENANT_DSL,
    build_multi_tenant_family,
    build_multi_tenant_model,
    multi_tenant_operators,
)

# Thresholds and hysteresis as in the multi_tenant scenario's defaults.
MAX_LATENCY = 4.0
MIN_UTILIZATION = 0.35
LOW_WATER = 1.0
WAKE_BAND = 0.1
MIN_SIZE = 2
MAX_WORKERS = 16
#: one boostTenant adds one worker, so one relaxTenant undoes it
GROW_STEP = 1
#: samples per probe flush == samples per probe per gauge period
BATCH = 5

# What the played application reports.  A pool is hot while it has fewer
# workers than it needs; an idle pool queues nothing (below LOW_WATER,
# so relaxTenant's guard lets it shrink).
HOT_LATENCY = 8.0
BUSY_LATENCY = 2.0
IDLE_LATENCY = 0.3
BUSY_LOAD = 0.8
IDLE_LOAD = 0.05
#: multiplicative sample noise, uniform in [1 - NOISE, 1 + NOISE]
NOISE = 0.05


@dataclass(frozen=True)
class PlaneConfig:
    """The knobs that differ between the simulated and the live plane."""

    pools: int
    gauge_period: float
    delivery: float
    #: how long a repaired pool's model value can stay stale — until its
    #: probes flushed post-repair samples and the gauge reported them; the
    #: settle window is what keeps that stale value from re-admitting it
    settle_time: float
    #: logical time the effector takes to actuate (repairs overlap)
    actuation_delay: float
    utilization_tau: float
    shards: int = 0

    @property
    def sample_period(self) -> float:
        """Logical seconds between two samples of one probe."""
        return self.gauge_period / BATCH

    def repair_deadline(self) -> float:
        """Logical-time allowance from violating sample to effector call:
        gauge period + 2x delivery + settle (ISSUE's deadline rule), plus
        the batch span a sample may wait for its probe flush."""
        return 2 * self.gauge_period + 2 * self.delivery + self.settle_time


SIM_PLANE = PlaneConfig(
    pools=1000,
    gauge_period=5.0,
    delivery=0.05,
    settle_time=5.0,
    actuation_delay=0.5,
    utilization_tau=2.0,
)
LIVE_PLANE = PlaneConfig(
    pools=200,
    gauge_period=0.25,
    delivery=0.01,
    # a live probe flushes every 0.4 s (BATCH samples at 12.5/s)
    settle_time=0.75,
    actuation_delay=0.02,
    utilization_tau=0.25,
)


def tenant_names(pools: int) -> List[str]:
    """``T0`` .. ``T<pools-1>``: the numeric suffix is the pool index (and
    the ``numeric_suffix`` shard key)."""
    return [f"T{i}" for i in range(pools)]


class EffectorCall(NamedTuple):
    pool: int
    size: int
    grew: bool
    logical: float  # scheduler time of the call
    wall_ns: int  # perf_counter_ns at the call
    lag: float  # clock.elapsed() - logical on a realtime scheduler, else 0


class RecordingEffector(IntentExecutor):
    """The bench's effector: applies each resize to the played
    application, records the call, and reports done after
    ``actuation_delay`` logical seconds."""

    INTENT_OPS = frozenset({"resizeTenant"})

    def __init__(self, sim, app: "BenchApp", actuation_delay: float):
        self.sim = sim
        self.app = app
        self.actuation_delay = actuation_delay
        self.clock = getattr(sim, "clock", None)
        self.calls: List[EffectorCall] = []

    def execute(self, intents, on_done=None):
        wall_ns = time.perf_counter_ns()
        logical = self.sim.now
        lag = self.clock.elapsed() - logical if self.clock is not None else 0.0
        for intent in intents:
            self._apply(intent, logical, wall_ns, lag)
        if on_done is not None:
            self.sim.schedule(self.actuation_delay, on_done)

    def _apply(self, intent, logical: float, wall_ns: int, lag: float) -> None:
        pool = int(intent.args["tenant"][1:])
        size = int(intent.args["size"])
        self.app.size[pool] = size
        self.calls.append(
            EffectorCall(
                pool, size, bool(intent.args["grew"]), logical, wall_ns, lag
            )
        )


class BenchApp(ManagedApplication):
    """The played application: per-pool size, demand and load."""

    name = "e2e-bench-plane"

    def __init__(self, config: PlaneConfig):
        self.config = config
        self.tenants = tenant_names(config.pools)
        self.size = np.full(config.pools, MIN_SIZE, dtype=np.int64)
        self.demand = np.full(config.pools, MIN_SIZE, dtype=np.int64)
        self.load = np.full(config.pools, BUSY_LOAD, dtype=np.float64)
        self.effector: Optional[RecordingEffector] = None

    def architecture(self):
        return build_multi_tenant_model(
            "BenchTenancy",
            tenants=self.tenants,
            pool_size=MIN_SIZE,
            min_size=MIN_SIZE,
            family=build_multi_tenant_family(),
        )

    def intent_executor(self, runtime: AdaptationRuntime) -> RecordingEffector:
        self.effector = RecordingEffector(
            runtime.sim, self, self.config.actuation_delay
        )
        return self.effector

    # -- what the application would report right now -----------------------
    def latency(self) -> np.ndarray:
        calm = np.where(self.load >= 0.5, BUSY_LATENCY, IDLE_LATENCY)
        return np.where(self.size < self.demand, HOT_LATENCY, calm)

    def utilization(self) -> np.ndarray:
        return np.minimum(1.0, self.load * self.demand / self.size)


def build_spec(config: PlaneConfig) -> AdaptationSpec:
    """The plane's control-plane description (see module doc)."""
    instruments: List = []
    for tenant in tenant_names(config.pools):
        instruments.extend(
            [
                ProbeBinding(
                    lambda rt, t=tenant: IngestProbe(
                        rt.sim, rt.probe_bus, "latency", t, batch=BATCH
                    )
                ),
                GaugeBinding(
                    lambda rt, t=tenant: LatestValueGauge(
                        rt.sim, rt.probe_bus, rt.gauge_bus, "latency", t,
                        period=config.gauge_period,
                    ),
                    entities=[tenant],
                ),
                ProbeBinding(
                    lambda rt, t=tenant: IngestProbe(
                        rt.sim, rt.probe_bus, "utilization", t, batch=BATCH
                    )
                ),
                GaugeBinding(
                    lambda rt, t=tenant: EwmaGauge(
                        rt.sim, rt.probe_bus, rt.gauge_bus, "utilization", t,
                        period=config.gauge_period,
                        tau=config.utilization_tau,
                    ),
                    entities=[tenant],
                ),
            ]
        )
    return AdaptationSpec(
        style="MultiTenantFam",
        dsl_source=MULTI_TENANT_DSL,
        invariant_scopes={"f": "TenantPoolT", "i": "TenantPoolT"},
        bindings={
            "maxLatency": MAX_LATENCY,
            "minUtilization": MIN_UTILIZATION,
            "lowWater": LOW_WATER,
            "growStep": GROW_STEP,
        },
        operators=lambda rt: multi_tenant_operators(max_workers=MAX_WORKERS),
        instruments=instruments,
        gauge_property_map={"latency": "latency", "utilization": "utilization"},
        delivery=FixedDelay(config.delivery),
        gauge_create_delay=0.0,
        settle_time=config.settle_time,
        concurrency="disjoint",
        # every pool may be mid-repair at once; admission is the
        # footprint check, not this cap
        max_concurrent_repairs=2 * config.pools,
        telemetry="columnar",
        wake_thresholds={
            "latency": WakeThreshold(MAX_LATENCY, band=WAKE_BAND * MAX_LATENCY),
            "utilization": WakeThreshold(
                MIN_UTILIZATION,
                band=WAKE_BAND * MIN_UTILIZATION,
                direction="below",
            ),
        },
        sharding=(
            ShardingSpec(shards=config.shards, key="numeric_suffix")
            if config.shards
            else None
        ),
    )


class Plane:
    """A built plane plus the handles a workload drives it through."""

    def __init__(self, runtime: AdaptationRuntime, app: BenchApp):
        self.runtime = runtime
        self.app = app
        self.effector: RecordingEffector = app.effector
        # instrument order is [latency probe, utilization probe] per pool
        self.latency_probes = runtime.probes[0::2]
        self.utilization_probes = runtime.probes[1::2]


def build_plane(sim, config: PlaneConfig) -> Plane:
    """DSL parse, model, checker compile, instruments, ``start()``."""
    app = BenchApp(config)
    runtime = AdaptationRuntime(sim, app, build_spec(config))
    runtime.start()
    return Plane(runtime, app)


class Telemetry:
    """Seeded sample noise, generated before any clock starts.

    ``rows(app, k)`` gives the ``BATCH`` samples per pool of feed ``k``
    as ``(latency_rows, utilization_rows)``: ``BATCH`` python lists of
    ``pools`` floats each, ready to hand to ``probe.ingest``.
    """

    def __init__(self, seed: int, pools: int, feeds: int):
        rng = np.random.default_rng([seed, pools, feeds])
        shape = (feeds, BATCH, pools)
        self.latency_noise = rng.uniform(1 - NOISE, 1 + NOISE, shape)
        self.utilization_noise = rng.uniform(1 - NOISE, 1.0, shape)
        #: pool order for cohort membership: a different seed moves pools
        #: between cohorts, never the number of pools per cohort
        self.order = rng.permutation(pools)

    def rows(self, app: BenchApp, k: int) -> Tuple[list, list]:
        latency = (app.latency() * self.latency_noise[k]).tolist()
        utilization = (app.utilization() * self.utilization_noise[k]).tolist()
        return latency, utilization
