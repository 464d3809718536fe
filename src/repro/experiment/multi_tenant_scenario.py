"""The ``multi_tenant`` scenario: N tenant farms, concurrent repairs.

Like :mod:`repro.experiment.master_worker_scenario` (the template), this
module registers a whole application family **purely through the public
API** — ``register_scenario(name, params=...)``, a typed frozen
:class:`MultiTenantParams` block, a monitoring table
(:func:`~repro.runtime.spec.monitoring_table`), the
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
from functools import partial
from typing import Any, ClassVar, Dict, List, Optional

from repro.app.multi_tenant_app import MultiTenantApplication
from repro.bus.bus import FixedDelay
from repro.experiment.base import ScenarioExperiment
from repro.experiment.config import RunConfig
from repro.experiment.params import ScenarioParams
from repro.experiment.result import RunResult
from repro.experiment.scenarios import register_scenario
from repro.experiment.workload import Arrivals, burst
from repro.monitoring.gauges import EwmaGauge, LatestValueGauge
from repro.monitoring.manager import WakeThreshold
from repro.runtime import AdaptationSpec, RuntimeStats
from repro.runtime.sharding import ShardingSpec, resolve_shard_key
from repro.runtime.spec import monitoring_table
from repro.styles.multi_tenant import (
    MULTI_TENANT_DSL,
    build_multi_tenant_family,
    build_multi_tenant_model,
    multi_tenant_operators,
)
from repro.translation import IntentRow

__all__ = [
    "MultiTenantParams",
    "MultiTenantShardedParams",
    "MultiTenantResult",
    "MultiTenantExperiment",
    "multi_tenant_intents",
]


@dataclass(frozen=True)
class MultiTenantParams(ScenarioParams):
    """The multi-tenant scenario's typed knob block."""

    # tenancy shape
    tenants: int = 6  # tenant count (pools are named T0..T{n-1})
    workers: int = 2  # initial (and designed minimum) pool width
    min_workers: int = 2
    max_workers: int = 12  # per-tenant grow budget

    # task service model (per tenant)
    service_mean: float = 2.0  # s per task (exponential)

    # workload: per-tenant Poisson streams; a surge window drives several
    # tenants above capacity at once
    baseline_rate: float = 0.4  # tasks/s per tenant (capacity: 1.0/s)
    surge_rate: float = 2.5  # tasks/s per surged tenant (needs ~5 workers)
    surge_start: float = 150.0
    surge_end: float = 600.0
    surged_tenants: int = 0  # how many tenants surge; 0 = all of them

    # thresholds
    max_latency: float = 4.0  # fairLatency bound on estimated wait, s
    min_utilization: float = 0.35  # idlePool scale-down threshold
    low_water: float = 1.0  # never shrink a tenant still queueing
    grow_step: int = 4  # workers added per boostTenant repair

    # monitoring
    probe_period: float = 1.0
    gauge_period: float = 5.0
    utilization_tau: float = 60.0

    # checker wakeups are gated on threshold crossings, with hysteresis
    wake_band: float = 0.1  # band, as a fraction of each threshold

    # translation costs
    spin_up_cost: float = 6.0  # s to provision a pool resize
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
        self._at_least(1, "tenants")
        self._require(
            1 <= self.min_workers <= self.workers <= self.max_workers,
            "pool sizes must satisfy 1 <= min_workers <= workers <= "
            "max_workers",
        )
        self._positive("service_mean")
        self._check_rates("baseline_rate", "surge_rate")
        self._require(
            0.0 <= self.surge_start < self.surge_end,
            "surge window must satisfy 0 <= surge_start < surge_end",
        )
        self._require(
            0 <= self.surged_tenants <= self.tenants,
            "surged_tenants must be in [0, tenants] (0 = all)",
        )
        self._at_least(1, "grow_step")
        self._positive("probe_period", "gauge_period", "utilization_tau")
        if self.sharding is not None:
            self._owned(
                partial(resolve_shard_key, self.sharding.key), key="sharding.key"
            )

    def wake_thresholds(self) -> Dict[str, WakeThreshold]:
        """Latency threatens fairLatency from above, utilization idlePool
        from below."""
        return {
            "latency": self._wake_threshold("max_latency"),
            "utilization": self._wake_threshold("min_utilization", "below"),
        }


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
    sharding: Optional[ShardingSpec] = ShardingSpec(shards=3, key="numeric_suffix")


@dataclass
class MultiTenantResult(RunResult):
    """The multi-tenant run, plus its per-tenant and scheduling views."""

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
        stats = self.stats if self.stats is not None else RuntimeStats()
        repairs = stats.repairs
        return {
            "tenants": self.tenants,
            "time_to_all_repaired": self.time_to_all_repaired(),
            "conflicts": repairs.get("conflicts", 0),
            "peak_inflight": repairs.get("peak_inflight", 0),
            "final_sizes": self.final_sizes(),
        }


def multi_tenant_intents(
    app: MultiTenantApplication, params: MultiTenantParams
) -> Dict[str, IntentRow]:
    """Per-tenant pool resizes, replayed onto the running farms.

    Growing charges the provisioning cost and blinds that tenant's
    gauges; shrinking releases workers immediately (they retire lazily
    as their current tasks finish).
    """

    def resize(intent):
        tenant = intent.args["tenant"]
        app.set_pool_size(tenant, intent.args["size"])
        return (tenant,) if intent.args.get("grew") else None

    def cost(intent):
        return params.spin_up_cost if intent.args.get("grew") else 0.0

    return {"resizeTenant": IntentRow(cost, resize)}


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
            Arrivals(
                self.sim,
                burst(
                    params.baseline_rate,
                    params.surge_rate if tenant in surged else params.baseline_rate,
                    params.surge_start,
                    params.surge_end,
                ),
                rng=self.seeds.rng(f"multi_tenant.{tenant}.source"),
                submit=partial(self.app.submit, tenant),
                name=f"arrivals-{tenant}",
            )
            for tenant in params.tenant_names()
        ]

    def architecture(self):
        return build_multi_tenant_model(
            "TenancyModel",
            tenants=self.app.tenants,
            pool_size=self.params.workers,
            min_size=self.params.min_workers,
            family=build_multi_tenant_family(),
        )

    def intents(self) -> Dict[str, IntentRow]:
        return multi_tenant_intents(self.app, self.params)

    def series(self):
        """Ground truth: per-tenant latency and size, violation count."""
        app, max_latency = self.app, self.params.max_latency

        def inflight() -> float:
            # a serial engine's one repair in flight counts as 1
            manager = self.manager
            if manager is None:
                return 0.0
            return float(manager.inflight) or self.repair_active()

        yield "violating.count", "tenants", lambda: len(app.violating(max_latency))
        yield "repairs.inflight", "", inflight
        for tenant in app.tenants:
            yield f"latency.{tenant}", "s", partial(app.latency, tenant)
            yield f"size.{tenant}", "workers", partial(app.pool_size, tenant)

    def _adaptation_spec(self) -> AdaptationSpec:
        params = self.params
        app = self.app
        # One probe flush per gauge period (see map_reduce_scenario).
        batch = max(1, int(round(params.gauge_period / params.probe_period)))
        instruments = monitoring_table(
            app.tenants,
            [
                (
                    "latency",
                    app.latency,
                    LatestValueGauge,
                    {"period": params.gauge_period},
                ),
                (
                    "utilization",
                    app.utilization,
                    EwmaGauge,
                    {"period": params.gauge_period, "tau": params.utilization_tau},
                ),
            ],
            period=params.probe_period,
            batch=batch,
        )
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
            **params.spec_settings(self.config.seed),
        )
