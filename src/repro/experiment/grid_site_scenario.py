"""The ``grid_site`` scenario: a federated grid whose sites fail.

The robustness showcase: N sites (each pools x slots of pilot capacity)
behind a health-blind submission router, with the **fault plane**
crashing and recovering whole sites on a seeded schedule and sabotaging
the adaptation's own effectors.  The control run suffers the same
outages with no adaptation: new work keeps routing into dead sites and
strands there.  The adapted run watches per-site ``healthy`` heartbeats
and drains dead sites (moving their backlog to survivors), resubmitting
pilots when they return — executed through a translator the fault plane
makes unreliable, so the repair engine's timeouts, retry/backoff,
circuit breakers and quarantine all earn their keep.

This is also the first **hierarchical-scope** workload: a ``drainSite``
repair writes the site component and every pool beneath it, so one
committed footprint spans a subtree of the model.

Determinism: control and adapted runs build their outage schedules from
the same ``FaultSpec`` seed and per-site RNG streams, so both runs see
byte-identical site up/down timelines; the adapted run's extra fault
draws (effector sabotage) come from dedicated streams and cannot skew
the outages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.app.grid_site_app import GridSiteApplication
from repro.bus.bus import FixedDelay
from repro.experiment.base import ScenarioExperiment
from repro.experiment.config import RunConfig
from repro.experiment.params import ScenarioParams
from repro.experiment.result import RunResult
from repro.experiment.scenarios import register_scenario
from repro.faults import (
    BusFaultSpec,
    EffectorFaultSpec,
    FaultPlane,
    FaultSpec,
    OutageSpec,
    ProbeDropoutSpec,
)
from repro.experiment.workload import Arrivals
from repro.monitoring.gauges import LatestValueGauge
from repro.repair.resilience import BreakerPolicy, QuarantinePolicy, RetryPolicy
from repro.runtime import AdaptationRuntime, AdaptationSpec
from repro.runtime.spec import monitoring_table
from repro.util.windows import StepFunction
from repro.styles.grid_site import (
    GRID_SITE_DSL,
    build_grid_site_family,
    build_grid_site_model,
    grid_site_operators,
)
from repro.translation import IntentRow, IntentTranslator

__all__ = [
    "GridSiteParams",
    "GridSiteResult",
    "GridSiteExperiment",
    "grid_site_intents",
]


@dataclass(frozen=True)
class GridSiteParams(ScenarioParams):
    """The grid-site scenario's typed knob block."""

    # grid shape: site i gets pools_per_site pools of
    # slots_per_pool + (i % slot_spread) slots — deterministic
    # heterogeneity so capacity-weighted routing has something to weight
    sites: int = 5
    pools_per_site: int = 2
    slots_per_pool: int = 2
    slot_spread: int = 3

    # workload: one global Poisson pilot-job stream through the router
    service_mean: float = 6.0
    arrival_rate: float = 1.2

    # fault plane: site outages + effector sabotage (seeded off the run
    # seed, shared by control and adapted runs).  Only the *last*
    # ``flaky_sites`` sites crash (0 = all of them): a stable core keeps
    # enough capacity that draining dead sites actually rescues work.
    faults_enabled: bool = True
    flaky_sites: int = 3
    site_mtbf: float = 15.0
    site_outage_mean: float = 500.0
    fault_start: float = 10.0
    effector_fail_prob: float = 0.2
    effector_noop_prob: float = 0.1
    effector_hang_prob: float = 0.05
    probe_dropout_mtbd: float = 0.0  # 0 = no probe dropout windows
    probe_dropout_mean: float = 20.0
    bus_drop_prob: float = 0.0  # per-delivery probe/gauge drop

    # monitoring
    probe_period: float = 1.0
    gauge_period: float = 2.0

    # translation costs (what the sabotaged effectors charge)
    drain_cost: float = 3.0
    resubmit_cost: float = 3.0

    # resilient repair execution (0 disables each mechanism)
    repair_timeout: float = 20.0
    retry_attempts: int = 3
    retry_backoff: float = 4.0
    retry_multiplier: float = 2.0
    retry_jitter: float = 0.25
    breaker_threshold: int = 3
    breaker_reset: float = 60.0
    quarantine_after: int = 4
    quarantine_period: float = 90.0
    history_capacity: int = 0  # 0 = unbounded

    # repair machinery
    settle_time: float = 5.0
    failed_repair_cost: float = 2.0
    violation_policy: str = "first"
    concurrency: str = "serial"

    def site_names(self) -> List[str]:
        return [f"site{i}" for i in range(self.sites)]

    def site_slots(self, index: int) -> int:
        return self.slots_per_pool + (index % self.slot_spread)

    def site_specs(self) -> List[Tuple[str, int, int]]:
        """``(name, pools, slots_per_pool)`` triples, model and runtime."""
        return [
            (name, self.pools_per_site, self.site_slots(i))
            for i, name in enumerate(self.site_names())
        ]

    def flaky_names(self) -> List[str]:
        """The crashable sites (the last ``flaky_sites``; 0 = all)."""
        names = self.site_names()
        if not self.flaky_sites:
            return names
        return names[-self.flaky_sites:]

    def total_slots(self) -> int:
        return sum(pools * slots for _, pools, slots in self.site_specs())

    def validate(self, config: "RunConfig") -> None:
        self._require(self.sites >= 1, "sites must be >= 1")
        self._require(self.pools_per_site >= 1, "pools_per_site must be >= 1")
        self._require(self.slots_per_pool >= 1, "slots_per_pool must be >= 1")
        self._require(self.slot_spread >= 1, "slot_spread must be >= 1")
        self._require(self.service_mean > 0, "service_mean must be positive")
        self._check_rates("arrival_rate")
        self._require(
            0 <= self.flaky_sites <= self.sites,
            "flaky_sites must be in [0, sites] (0 = all)",
        )
        self._require(self.site_mtbf > 0, "site_mtbf must be positive")
        self._require(self.site_outage_mean > 0, "site_outage_mean must be positive")
        self._require(self.fault_start >= 0, "fault_start must be >= 0")
        for name in ("fail", "noop", "hang"):
            prob = getattr(self, f"effector_{name}_prob")
            self._require(
                0.0 <= prob <= 1.0, f"effector_{name}_prob must be in [0, 1]"
            )
        self._require(
            self.effector_fail_prob
            + self.effector_noop_prob
            + self.effector_hang_prob
            <= 1.0,
            "effector fault probabilities must sum to <= 1",
        )
        self._require(self.probe_dropout_mtbd >= 0, "probe_dropout_mtbd must be >= 0")
        self._require(
            0.0 <= self.bus_drop_prob < 1.0, "bus_drop_prob must be in [0, 1)"
        )
        self._require(self.probe_period > 0, "probe_period must be positive")
        self._require(self.gauge_period > 0, "gauge_period must be positive")
        self._require(self.drain_cost >= 0, "drain_cost must be >= 0")
        self._require(self.resubmit_cost >= 0, "resubmit_cost must be >= 0")
        self._require(self.repair_timeout >= 0, "repair_timeout must be >= 0")
        self._require(self.retry_attempts >= 1, "retry_attempts must be >= 1")
        self._require(self.retry_backoff > 0, "retry_backoff must be positive")
        self._require(self.retry_multiplier >= 1.0, "retry_multiplier must be >= 1")
        self._require(self.retry_jitter >= 0, "retry_jitter must be >= 0")
        self._require(self.breaker_threshold >= 0, "breaker_threshold must be >= 0")
        self._require(self.breaker_reset > 0, "breaker_reset must be positive")
        self._require(self.quarantine_after >= 0, "quarantine_after must be >= 0")
        self._require(self.quarantine_period > 0, "quarantine_period must be positive")
        self._require(self.history_capacity >= 0, "history_capacity must be >= 0")
        self._check_policy(self.violation_policy)
        self._require(
            self.concurrency in ("serial", "disjoint"),
            f"concurrency must be 'serial' or 'disjoint', "
            f"got {self.concurrency!r}",
        )


#: the repair engine's counters GridSiteResult.resilience carries
RESILIENCE_COUNTERS: Tuple[str, ...] = (
    "timeouts",
    "retries",
    "effector_failures",
    "quarantines",
    "quarantine_skips",
    "human_alerts",
    "breaker_opened",
    "breaker_recoveries",
    "breaker_rejections",
    "breakers_open",
)


@dataclass
class GridSiteResult(RunResult):
    """The grid-site run, plus its resilience-machinery views."""

    stranded: int = 0
    #: the repair engine's resilience counters (timeouts, retries,
    #: breaker transitions, quarantines); {} on control runs
    resilience: Dict[str, Any] = field(default_factory=dict)
    #: final circuit-breaker states, ``tactic@scope -> state``
    breaker_states: Dict[str, str] = field(default_factory=dict)

    @property
    def sites(self) -> List[str]:
        return sorted(
            (n.split(".", 1)[1] for n in self.series if n.startswith("queue.")),
            key=lambda name: (len(name), name),
        )

    def extras(self) -> Dict[str, Any]:
        return {
            "sites": self.sites,
            "stranded": self.stranded,
            "resilience": dict(self.resilience),
            "breaker_states": dict(self.breaker_states),
        }


def grid_site_intents(
    app: GridSiteApplication, params: GridSiteParams
) -> Dict[str, IntentRow]:
    """Site drains and pilot resubmissions, replayed onto the grid.

    When the scenario runs with faults, the fault plane wraps the
    executor — so what the engine actually calls may raise, silently
    no-op, or hang.
    """

    def drain(intent):
        app.drain_site(intent.args["site"])

    def resubmit(intent):
        app.resubmit_pilots(intent.args["site"])

    return {
        "drainSite": IntentRow(params.drain_cost, drain),
        "resubmitPilots": IntentRow(params.resubmit_cost, resubmit),
    }


@register_scenario(
    "grid_site",
    params=GridSiteParams,
    description="N failing grid sites: fault plane + resilient repairs",
)
class GridSiteExperiment(ScenarioExperiment):
    """One wired grid-site run (control or adapted), ready to run.

    Control runs get an **outages-only** fault plane built from the same
    seed, bound straight to the application — identical site up/down
    timelines, no adaptation machinery.  Adapted runs get the full
    ``FaultSpec`` through the :class:`AdaptationSpec`, so the runtime
    owns the plane, wraps the translator and binds probes and buses.
    """

    RESULT = GridSiteResult
    params: GridSiteParams

    def setup(self) -> None:
        params = self.params
        self.app = GridSiteApplication(
            self.sim,
            sites=params.site_specs(),
            service_mean=params.service_mean,
            rng=self.seeds.rng("grid_site.service"),
            trace=self.trace,
        )
        self.sources.append(
            Arrivals(
                self.sim,
                StepFunction([(0.0, params.arrival_rate)]),
                rng=self.seeds.rng("grid_site.arrivals"),
                submit=self.app.submit,
                name="grid-arrivals",
            )
        )

    def architecture(self):
        return build_grid_site_model(
            "GridModel",
            sites=self.params.site_specs(),
            family=build_grid_site_family(),
        )

    def intent_executor(self, runtime: AdaptationRuntime) -> IntentTranslator:
        return IntentTranslator(
            runtime.sim, grid_site_intents(self.app, self.params), runtime.trace
        )

    def bind_faults(self, plane: FaultPlane) -> None:
        for name in self.app.sites:
            plane.bind_component(
                name,
                on_fail=partial(self.app.fail, name),
                on_recover=partial(self.app.recover, name),
            )

    def series(self):
        """Ground truth: throughput, backlog, site states."""
        app = self.app
        yield "completed.total", "tasks", lambda: app.completed
        yield "backlog.total", "tasks", app.backlog
        yield "sites.down", "sites", app.sites_down
        yield "sites.drained", "sites", app.sites_drained
        for name in app.sites:
            yield f"queue.{name}", "tasks", partial(app.queue_length, name)

    def _build_runtime(self) -> Optional[AdaptationRuntime]:
        runtime = super()._build_runtime()
        self.control_plane: Optional[FaultPlane] = None
        if runtime is None and self.params.faults_enabled:
            self.control_plane = FaultPlane(
                self.sim, self._fault_spec(outages_only=True), trace=self.trace
            )
            self.bind_faults(self.control_plane)
        return runtime

    def start_extras(self) -> None:
        if self.control_plane is not None:
            self.control_plane.start()

    # -- spec assembly -----------------------------------------------------
    def _fault_spec(self, outages_only: bool = False) -> Optional[FaultSpec]:
        """The run's fault configuration, seeded off the run seed.

        Outage draws come from per-site streams keyed only by the seed
        and site name, so the control (outages-only) and adapted (full)
        specs produce byte-identical up/down timelines.
        """
        params = self.params
        if not params.faults_enabled:
            return None
        effector = None
        probe_dropouts = None
        bus = None
        if not outages_only:
            if (
                params.effector_fail_prob
                or params.effector_noop_prob
                or params.effector_hang_prob
            ):
                effector = EffectorFaultSpec(
                    fail_prob=params.effector_fail_prob,
                    noop_prob=params.effector_noop_prob,
                    hang_prob=params.effector_hang_prob,
                )
            if params.probe_dropout_mtbd > 0:
                probe_dropouts = ProbeDropoutSpec(
                    mtbd=params.probe_dropout_mtbd,
                    dropout_mean=params.probe_dropout_mean,
                    start=params.fault_start,
                )
            if params.bus_drop_prob > 0:
                bus = BusFaultSpec(drop_prob=params.bus_drop_prob)
        return FaultSpec(
            seed=self.config.seed,
            outages=(
                OutageSpec(
                    targets=tuple(params.flaky_names()),
                    mtbf=params.site_mtbf,
                    outage_mean=params.site_outage_mean,
                    start=params.fault_start,
                ),
            ),
            effector=effector,
            probe_dropouts=probe_dropouts,
            bus=bus,
        )

    def _adaptation_spec(self) -> AdaptationSpec:
        params = self.params
        app = self.app
        # Both site properties are monitored from the runtime, not
        # assumed from the model: ``drained`` in particular must flow
        # back through a gauge, because a silently no-opped drain leaves
        # the model claiming ``drained=1`` while the runtime still
        # routes into the dead site — the divergence only monitoring
        # can re-detect (and the repair then re-fires).
        report = {"period": params.gauge_period}
        instruments = monitoring_table(
            params.site_names(),
            [
                ("healthy", app.healthy, LatestValueGauge, report),
                ("drained", app.drained_flag, LatestValueGauge, report),
            ],
            period=params.probe_period,
        )
        return AdaptationSpec(
            style="GridSiteFam",
            dsl_source=GRID_SITE_DSL,
            invariant_scopes={"s": "SiteT", "j": "SiteT"},
            bindings={},
            operators=lambda rt: grid_site_operators(),
            instruments=instruments,
            gauge_property_map={"healthy": "healthy", "drained": "drained"},
            delivery=FixedDelay(0.05),
            settle_time=params.settle_time,
            failed_repair_cost=params.failed_repair_cost,
            violation_policy=params.violation_policy,
            concurrency=params.concurrency,
            faults=self._fault_spec(),
            repair_timeout=params.repair_timeout or None,
            retry_policy=(
                RetryPolicy(
                    max_attempts=params.retry_attempts,
                    backoff=params.retry_backoff,
                    multiplier=params.retry_multiplier,
                    jitter=params.retry_jitter,
                    seed=self.config.seed,
                )
                if params.retry_attempts > 1
                else None
            ),
            breaker_policy=(
                BreakerPolicy(
                    failure_threshold=params.breaker_threshold,
                    reset_timeout=params.breaker_reset,
                )
                if params.breaker_threshold > 0
                else None
            ),
            quarantine_policy=(
                QuarantinePolicy(
                    after_failures=params.quarantine_after,
                    period=params.quarantine_period,
                )
                if params.quarantine_after > 0
                else None
            ),
            history_capacity=params.history_capacity or None,
        )

    def outcome(self, stats) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            **super().outcome(stats),
            "stranded": self.app.stranded,
            "resilience": {
                key: stats.repairs[key]
                for key in RESILIENCE_COUNTERS
                if key in stats.repairs
            },
        }
        if self.control_plane is not None:
            fields["fault_stats"] = self.control_plane.stats()
        if self.runtime is not None and self.manager.breakers is not None:
            fields["breaker_states"] = self.manager.breakers.states()
        return fields
