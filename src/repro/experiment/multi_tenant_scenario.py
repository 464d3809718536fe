"""The ``multi_tenant`` scenario: N tenant farms, concurrent repairs.

Like :mod:`repro.experiment.master_worker_scenario` (the template), this
module registers a whole application family **purely through the public
API** — ``register_scenario(name, params=...)``, a typed frozen
:class:`MultiTenantParams` block, the generic
:class:`~repro.monitoring.probes.CallbackProbe` / value gauges, the
generic :class:`~repro.runtime.updater.PropertyUpdater`, and a
:class:`~repro.experiment.result.RunResult` subclass.

What it *demonstrates* is the concurrent repair engine: N tenants each
own a private worker pool and a scope-local ``fairLatency`` invariant,
and the workload surges **every tenant in the same window**.  With the
paper's serial engine one repair is in flight at a time, so tenant k
waits k settle windows for its turn; with ``concurrency="disjoint"``
(this scenario's default) the violations have provably disjoint
footprints and are all admitted immediately.  The scenario's headline
metric, :meth:`MultiTenantResult.time_to_all_repaired`, makes the
difference visible: time from surge onset until no tenant's ground-truth
latency violates its bound.

Its telemetry is :mod:`~repro.experiment.map_reduce_scenario`'s: each
probe flushes one batch message per gauge period, and a gauge report
wakes the checker only when latency or utilization crosses its
invariant threshold (hysteresis band ``wake_band``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional

from repro.app.multi_tenant_app import MultiTenantApplication
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
from repro.monitoring.gauges import EwmaGauge, LatestValueGauge
from repro.monitoring.manager import WakeThreshold
from repro.monitoring.probes import CallbackProbe
from repro.runtime import (
    AdaptationRuntime,
    AdaptationSpec,
    GaugeBinding,
    ManagedApplication,
    ProbeBinding,
)
from repro.runtime.sharding import ShardingSpec, shard_key_names
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.styles.multi_tenant import (
    MULTI_TENANT_DSL,
    build_multi_tenant_family,
    build_multi_tenant_model,
    multi_tenant_operators,
)
from repro.util.windows import StepFunction

__all__ = [
    "MultiTenantParams",
    "MultiTenantShardedParams",
    "MultiTenantResult",
    "MultiTenantExperiment",
    "MultiTenantManagedApplication",
    "MultiTenantTranslator",
    "SurgeArrivals",
]


@dataclass(frozen=True)
class MultiTenantParams(ScenarioParams):
    """The multi-tenant scenario's typed knob block."""

    # tenancy shape
    tenants: int = 6            # tenant count (pools are named T0..T{n-1})
    workers: int = 2            # initial (and designed minimum) pool width
    min_workers: int = 2
    max_workers: int = 12       # per-tenant grow budget

    # task service model (per tenant)
    service_mean: float = 2.0   # s per task (exponential)

    # workload: per-tenant Poisson streams; a surge window drives several
    # tenants above capacity at once
    baseline_rate: float = 0.4  # tasks/s per tenant (capacity: 1.0/s)
    surge_rate: float = 2.5     # tasks/s per surged tenant (needs ~5 workers)
    surge_start: float = 150.0
    surge_end: float = 600.0
    surged_tenants: int = 0     # how many tenants surge; 0 = all of them

    # thresholds
    max_latency: float = 4.0       # fairLatency bound on estimated wait, s
    min_utilization: float = 0.35  # idlePool scale-down threshold
    low_water: float = 1.0         # never shrink a tenant still queueing
    grow_step: int = 4             # workers added per boostTenant repair

    # monitoring
    probe_period: float = 1.0
    gauge_period: float = 5.0
    utilization_tau: float = 60.0

    # checker wakeups are gated on threshold crossings, with hysteresis
    wake_band: float = 0.1  # band, as a fraction of each threshold

    # translation costs
    spin_up_cost: float = 6.0      # s to provision a pool resize
    redeploy_window: float = 10.0  # gauge blindness after a resize

    # repair machinery
    gauge_caching: bool = False
    settle_time: float = 20.0
    failed_repair_cost: float = 2.0
    violation_policy: str = "first"
    concurrency: str = "disjoint"  # the scenario's raison d'etre
    max_concurrent_repairs: int = 16

    # control-plane partition: None is one shard, the single (pinned)
    # loop; reachable from the CLI as --set sharding.shards=N
    sharding: Optional[ShardingSpec] = None

    NESTED_BLOCKS: ClassVar[Dict[str, type]] = {"sharding": ShardingSpec}

    def tenant_names(self) -> List[str]:
        return [f"T{i}" for i in range(self.tenants)]

    def surged(self) -> List[str]:
        count = self.surged_tenants if self.surged_tenants else self.tenants
        return self.tenant_names()[:count]

    def validate(self, config: "RunConfig") -> None:
        self._require(self.tenants >= 1, "tenants must be >= 1")
        self._require(
            1 <= self.min_workers <= self.workers <= self.max_workers,
            "pool sizes must satisfy 1 <= min_workers <= workers <= "
            "max_workers",
        )
        self._require(self.service_mean > 0, "service_mean must be positive")
        self._require(self.baseline_rate > 0, "baseline_rate must be positive")
        self._require(self.surge_rate > 0, "surge_rate must be positive")
        self._require(
            0.0 <= self.surge_start < self.surge_end,
            "surge window must satisfy 0 <= surge_start < surge_end",
        )
        self._require(
            0 <= self.surged_tenants <= self.tenants,
            "surged_tenants must be in [0, tenants] (0 = all)",
        )
        self._require(self.grow_step >= 1, "grow_step must be >= 1")
        self._require(self.probe_period > 0, "probe_period must be positive")
        self._require(self.gauge_period > 0, "gauge_period must be positive")
        self._require(self.wake_band >= 0, "wake_band must be >= 0")
        self._require(
            self.max_concurrent_repairs >= 1,
            "max_concurrent_repairs must be >= 1",
        )
        self._check_policy(self.violation_policy)
        self._require(
            self.concurrency in ("serial", "disjoint"),
            f"concurrency must be 'serial' or 'disjoint', "
            f"got {self.concurrency!r}",
        )
        if self.sharding is not None:
            # the spec already validated its own shape on construction;
            # check the cross-cutting bit (the key must be registered)
            self._require(
                self.sharding.key in shard_key_names(),
                f"sharding.key {self.sharding.key!r} is not registered; "
                f"known keys: {shard_key_names()}",
            )


@dataclass(frozen=True)
class MultiTenantShardedParams(MultiTenantParams):
    """The sharded multi-tenant variant's defaults.

    Per-shard repair loops are serial — the paper's engine, one repair
    at a time *per shard* — so all observed concurrency comes from the
    sharding itself.  Tenants map to shards by their numeric suffix
    (``T7`` -> ``7 % shards``), keeping each shard's pool set stable as
    the tenant count grows.
    """

    concurrency: str = "serial"
    sharding: Optional[ShardingSpec] = ShardingSpec(
        shards=3, key="numeric_suffix"
    )


@dataclass
class MultiTenantResult(RunResult):
    """The multi-tenant run, plus its per-tenant and scheduling views."""

    conflicts: int = 0
    peak_inflight: int = 0

    @property
    def tenants(self) -> List[str]:
        """Tenant names, parsed from the ``latency.T*`` series."""
        return sorted(
            (n.split(".", 1)[1] for n in self.series if n.startswith("latency.")),
            key=lambda name: (len(name), name),
        )

    def time_to_all_repaired(self) -> float:
        """Seconds from surge onset until no tenant violates its bound.

        Ground truth (sampled ``violating.count``), not the gauge view:
        the first sample at/after ``surge_start`` where a violation has
        been seen and the count is back to zero.  A run that never
        quiesces scores the full remaining horizon — the honest worst
        case for comparing schedulers.
        """
        surge = self.config.params.surge_start
        ts = self.s("violating.count")
        seen = False
        for t, v in zip(ts.times, ts.values):
            if t < surge:
                continue
            if v > 0:
                seen = True
            elif seen:
                return float(t) - surge
        if not seen:
            return 0.0
        return float(self.config.horizon) - surge

    def final_sizes(self) -> Dict[str, float]:
        return {
            tenant: float(self.s(f"size.{tenant}").values[-1])
            for tenant in self.tenants
        }

    def extras(self) -> Dict[str, Any]:
        return {
            "tenants": self.tenants,
            "time_to_all_repaired": self.time_to_all_repaired(),
            "conflicts": self.conflicts,
            "peak_inflight": self.peak_inflight,
            "final_sizes": self.final_sizes(),
        }


class SurgeArrivals:
    """One tenant's Poisson task stream with an explicit surge window.

    Unlike :class:`~repro.experiment.workload.BurstArrivals` (whose burst
    rides fixed fractions of the horizon), the surge window is explicit —
    the scenario's point is *several* tenants violating in the same
    window, so all streams share one schedule.
    """

    def __init__(
        self,
        sim: Simulator,
        tenant: str,
        baseline_rate: float,
        surge_rate: float,
        surge_start: float,
        surge_end: float,
        rng,
        submit,
    ):
        self.sim = sim
        self.tenant = tenant
        self.rate = StepFunction(
            [
                (0.0, baseline_rate),
                (surge_start, surge_rate),
                (surge_end, baseline_rate),
            ]
        )
        self._rng = rng
        self._submit = submit

    def start(self) -> Process:
        return Process(self.sim, self._run(), name=f"arrivals-{self.tenant}")

    def _run(self):
        while True:
            rate = self.rate(self.sim.now)
            yield self.sim.timeout(float(self._rng.exponential(1.0 / rate)))
            self._submit(self.tenant)


class MultiTenantTranslator(CostedIntentExecutor):
    """Replays committed per-tenant pool resizes onto the running farms.

    Growing charges the provisioning cost and blanks that tenant's gauges
    for the redeployment window; shrinking releases workers immediately
    (they retire lazily as their current tasks finish).
    """

    INTENT_OPS = frozenset({"resizeTenant"})

    def cost(self, intent) -> float:
        return self.params.spin_up_cost if intent.args.get("grew") else 0.0

    def apply(self, intent) -> None:
        tenant = intent.args["tenant"]
        self.app.set_pool_size(tenant, intent.args["size"])
        if intent.args.get("grew"):
            self.redeploy(tenant)


class MultiTenantManagedApplication(ManagedApplication):
    """The tenant farms wrapped for the adaptation runtime."""

    name = "multi-tenant-service"

    def __init__(self, app: MultiTenantApplication, params: MultiTenantParams):
        self.app = app
        self.params = params

    def architecture(self):
        return build_multi_tenant_model(
            "TenancyModel",
            tenants=self.app.tenants,
            pool_size=self.params.workers,
            min_size=self.params.min_workers,
            family=build_multi_tenant_family(),
        )

    def intent_executor(self, runtime: AdaptationRuntime) -> MultiTenantTranslator:
        return MultiTenantTranslator(
            self.app,
            self.params,
            gauge_manager=runtime.gauge_manager,
            trace=runtime.trace,
        )


class MultiTenantMetricsSampler(PeriodicSampler):
    """Ground-truth sampling: per-tenant latency/size, violation count."""

    def series_table(self):
        yield "violating.count", "tenants"
        yield "repairs.inflight", ""
        for tenant in self.experiment.app.tenants:
            yield f"latency.{tenant}", "s"
            yield f"size.{tenant}", "workers"

    def sample(self) -> None:
        exp = self.experiment
        app = exp.app
        violating = 0
        for tenant in app.tenants:
            latency = app.latency(tenant)
            if latency > exp.params.max_latency:
                violating += 1
            self.record(f"latency.{tenant}", latency)
            self.record(f"size.{tenant}", float(app.pool_size(tenant)))
        self.record("violating.count", float(violating))
        manager = exp.manager
        inflight = 0.0
        if manager is not None:
            inflight = float(manager.inflight) or self.repair_active()
        self.record("repairs.inflight", inflight)


@register_scenario(
    "multi_tenant",
    params=MultiTenantParams,
    description="N tenant farms: per-tenant fairness, concurrent repairs",
)
@register_scenario(
    "multi_tenant_sharded",
    params=MultiTenantShardedParams,
    description="tenant farms on a sharded control plane: per-shard loops",
)
class MultiTenantExperiment(ScenarioExperiment):
    """One wired multi-tenant run (control or adapted), ready to run."""

    RESULT = MultiTenantResult
    SAMPLER = MultiTenantMetricsSampler
    params: MultiTenantParams

    def setup(self) -> None:
        params = self.params
        self.app = MultiTenantApplication(
            self.sim,
            tenants=params.tenant_names(),
            workers=params.workers,
            service_mean=params.service_mean,
            rng_factory=self.seeds.rng,
            trace=self.trace,
        )
        surged = set(params.surged())
        self.sources = [
            SurgeArrivals(
                self.sim,
                tenant,
                baseline_rate=params.baseline_rate,
                surge_rate=(
                    params.surge_rate if tenant in surged
                    else params.baseline_rate
                ),
                surge_start=params.surge_start,
                surge_end=params.surge_end,
                rng=self.seeds.rng(f"multi_tenant.{tenant}.source"),
                submit=self.app.submit,
            )
            for tenant in params.tenant_names()
        ]

    def managed_application(self) -> MultiTenantManagedApplication:
        return MultiTenantManagedApplication(self.app, self.params)

    def _adaptation_spec(self) -> AdaptationSpec:
        params = self.params
        app = self.app
        # One probe flush per gauge period (see map_reduce_scenario).
        batch = max(1, int(round(params.gauge_period / params.probe_period)))
        instruments: List = []
        for tenant in app.tenants:
            instruments.extend(
                [
                    ProbeBinding(
                        lambda rt, t=tenant: CallbackProbe(
                            rt.sim, rt.probe_bus, "latency", t,
                            lambda t=t: app.latency(t),
                            period=params.probe_period,
                            batch=batch,
                        ),
                        periodic=True,
                    ),
                    GaugeBinding(
                        lambda rt, t=tenant: LatestValueGauge(
                            rt.sim, rt.probe_bus, rt.gauge_bus, "latency", t,
                            period=params.gauge_period,
                        ),
                        entities=[tenant],
                    ),
                    ProbeBinding(
                        lambda rt, t=tenant: CallbackProbe(
                            rt.sim, rt.probe_bus, "utilization", t,
                            lambda t=t: app.utilization(t),
                            period=params.probe_period,
                            batch=batch,
                        ),
                        periodic=True,
                    ),
                    GaugeBinding(
                        lambda rt, t=tenant: EwmaGauge(
                            rt.sim, rt.probe_bus, rt.gauge_bus,
                            "utilization", t,
                            period=params.gauge_period,
                            tau=params.utilization_tau,
                        ),
                        entities=[tenant],
                    ),
                ]
            )
        # Wake the checker only on threshold crossings: latency threatens
        # fairLatency from above, utilization threatens idlePool from below.
        wake_thresholds = {
            "latency": WakeThreshold(
                params.max_latency,
                band=params.wake_band * params.max_latency,
            ),
            "utilization": WakeThreshold(
                params.min_utilization,
                band=params.wake_band * params.min_utilization,
                direction="below",
            ),
        }
        return AdaptationSpec(
            style="MultiTenantFam",
            dsl_source=MULTI_TENANT_DSL,
            invariant_scopes={"f": "TenantPoolT", "i": "TenantPoolT"},
            bindings={
                "maxLatency": params.max_latency,
                "minUtilization": params.min_utilization,
                "lowWater": params.low_water,
                "growStep": params.grow_step,
            },
            operators=lambda rt: multi_tenant_operators(
                max_workers=params.max_workers
            ),
            instruments=instruments,
            gauge_property_map={
                "latency": "latency",
                "utilization": "utilization",
            },
            delivery=FixedDelay(0.05),
            gauge_caching=params.gauge_caching,
            settle_time=params.settle_time,
            failed_repair_cost=params.failed_repair_cost,
            violation_policy=params.violation_policy,
            concurrency=params.concurrency,
            max_concurrent_repairs=params.max_concurrent_repairs,
            wake_thresholds=wake_thresholds,
            sharding=params.sharding,
        )

    def outcome(self, stats) -> Dict[str, Any]:
        return {
            **super().outcome(stats),
            "conflicts": stats.repairs.get("conflicts", 0),
            "peak_inflight": stats.repairs.get("peak_inflight", 0),
        }
