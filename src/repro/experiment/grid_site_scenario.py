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
from typing import Any, ClassVar, Dict, List, Optional, Tuple

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
from repro.translation import IntentRow

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

    #: the fault spec's fields (as its messages name them) -> their knobs
    FAULT_KNOBS: ClassVar[Dict[str, str]] = {
        "mtbf": "site_mtbf",
        "outage_mean": "site_outage_mean",
        "start": "fault_start",
        "fail_prob": "effector_fail_prob",
        "noop_prob": "effector_noop_prob",
        "hang_prob": "effector_hang_prob",
        "mtbd": "probe_dropout_mtbd",
        "dropout_mean": "probe_dropout_mean",
        "drop_prob": "bus_drop_prob",
    }

    def validate(self, config: "RunConfig") -> None:
        self._at_least(1, "sites", "pools_per_site", "slots_per_pool", "slot_spread")
        self._positive("service_mean")
        self._check_rates("arrival_rate")
        self._require(
            0 <= self.flaky_sites <= self.sites,
            "flaky_sites must be in [0, sites] (0 = all)",
        )
        self._positive("probe_period", "gauge_period")
        self._at_least(
            0, "drain_cost", "resubmit_cost", "repair_timeout", "history_capacity"
        )

    # -- the value objects the run uses, checked by their owners ------------
    def fault_spec(self, seed: int, outages_only: bool = False) -> Optional[FaultSpec]:
        """The run's fault configuration, seeded off the run seed.

        Outage draws come from per-site streams keyed only by the seed
        and site name, so the control (outages-only) and adapted (full)
        specs produce byte-identical up/down timelines.  None when
        ``faults_enabled`` is off; a zero knob leaves its section out.
        """
        if not self.faults_enabled:
            return None
        effector = probe_dropouts = bus = None
        if not outages_only:
            probs = (
                self.effector_fail_prob,
                self.effector_noop_prob,
                self.effector_hang_prob,
            )
            if any(probs):
                effector = EffectorFaultSpec(*probs)
            if self.probe_dropout_mtbd:
                probe_dropouts = ProbeDropoutSpec(
                    mtbd=self.probe_dropout_mtbd,
                    dropout_mean=self.probe_dropout_mean,
                    start=self.fault_start,
                )
            if self.bus_drop_prob:
                bus = BusFaultSpec(drop_prob=self.bus_drop_prob)
        outages = OutageSpec(
            targets=tuple(self.flaky_names()),
            mtbf=self.site_mtbf,
            outage_mean=self.site_outage_mean,
            start=self.fault_start,
        )
        spec = FaultSpec(
            seed=seed,
            outages=(outages,),
            effector=effector,
            probe_dropouts=probe_dropouts,
            bus=bus,
        )
        self._owned(spec.validate, **self.FAULT_KNOBS)
        return spec

    def retry_policy(self, seed: int) -> Optional[RetryPolicy]:
        """Seeded backoff retries; None at one attempt (no retry)."""
        policy = RetryPolicy(
            max_attempts=self.retry_attempts,
            backoff=self.retry_backoff,
            multiplier=self.retry_multiplier,
            jitter=self.retry_jitter,
            seed=seed,
        )
        self._owned(
            policy.validate,
            max_attempts="retry_attempts",
            backoff="retry_backoff",
            multiplier="retry_multiplier",
            jitter="retry_jitter",
        )
        return policy if self.retry_attempts > 1 else None

    def breaker_policy(self) -> Optional[BreakerPolicy]:
        """Per-(tactic, scope) circuit breakers; None at threshold 0."""
        if not self.breaker_threshold:
            return None
        policy = BreakerPolicy(self.breaker_threshold, self.breaker_reset)
        self._owned(
            policy.validate,
            failure_threshold="breaker_threshold",
            reset_timeout="breaker_reset",
        )
        return policy

    def quarantine_policy(self) -> Optional[QuarantinePolicy]:
        """Quarantine for scopes that keep failing; None at 0 failures."""
        if not self.quarantine_after:
            return None
        policy = QuarantinePolicy(self.quarantine_after, self.quarantine_period)
        self._owned(
            policy.validate,
            after_failures="quarantine_after",
            period="quarantine_period",
        )
        return policy

    def spec_settings(self, seed: int) -> Dict[str, Any]:
        return {
            **super().spec_settings(seed),
            "faults": self.fault_spec(seed),
            "repair_timeout": self.repair_timeout or None,
            "retry_policy": self.retry_policy(seed),
            "breaker_policy": self.breaker_policy(),
            "quarantine_policy": self.quarantine_policy(),
            "history_capacity": self.history_capacity or None,
        }


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

    def intents(self) -> Dict[str, IntentRow]:
        return grid_site_intents(self.app, self.params)

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
                self.sim,
                self.params.fault_spec(self.config.seed, outages_only=True),
                trace=self.trace,
            )
            self.bind_faults(self.control_plane)
        return runtime

    def start_extras(self) -> None:
        if self.control_plane is not None:
            self.control_plane.start()

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
            **params.spec_settings(self.config.seed),
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
