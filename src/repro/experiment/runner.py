"""Builds and runs complete experiments (control and adapted).

This module owns the *runtime layer* of the paper's client/server
scenario — testbed network, application, competition generators — and
composes it with the reusable control plane in :mod:`repro.runtime`.  The
Figure 1 wiring (model layer, constraint checker, repair strategies from
the Figure 5 DSL, translator, monitoring) is expressed declaratively as an
:class:`~repro.runtime.spec.AdaptationSpec` and built by
:class:`~repro.runtime.core.AdaptationRuntime`; the control run omits the
spec entirely — the same application under the same seeded workload with
no adaptation.

The module also owns the shared execution front door:
:func:`run_scenario` resolves the scenario-neutral
:class:`~repro.experiment.config.RunConfig`, dispatches through the
scenario registry, and caches results in a bounded LRU keyed by the
resolved config — so equal configurations share one 30-minute simulation
no matter who asked for it.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Any, Dict, Optional, Tuple

from repro.app.client import Client
from repro.app.env_manager import EnvironmentManager
from repro.app.server import Server
from repro.app.system import GridApplication
from repro.bus.bus import CallableDelay, FixedDelay
from repro.experiment.base import ScenarioExperiment
from repro.experiment.config import RunConfig, as_run_config
from repro.experiment.metrics import BANDWIDTH_CLIENTS
from repro.experiment.params import ClientServerParams
from repro.experiment.result import ClientServerResult, RunResult
from repro.experiment.scenarios import register_scenario, scenario_entry
from repro.experiment.testbed import Testbed, build_testbed
from repro.experiment.workload import Workload, build_workload
from repro.monitoring.gauges import EwmaGauge, LatestValueGauge, WindowedMeanGauge
from repro.monitoring.probes import BandwidthProbe, ClientLatencyProbe, UtilizationProbe
from repro.net.flows import FlowNetwork
from repro.net.remos import RemosService
from repro.net.traffic import CrossTrafficGenerator
from repro.repair.context import AppRuntimeView, RuntimeView
from repro.runtime import AdaptationRuntime, AdaptationSpec
from repro.runtime.spec import monitoring_table
from repro.runtime.updater import component
from repro.styles.client_server import (
    FIGURE5_DSL,
    UNDERUTILIZATION_DSL,
    build_client_server_family,
    build_client_server_model,
    client_link,
    client_role,
    style_operators,
)
from repro.translation.costs import TranslationCosts
from repro.translation.translator import Translator

__all__ = [
    "Experiment",
    "run_scenario",
    "clear_cache",
    "set_cache_capacity",
]

#: invariant name (from the DSL) -> scope element type
_INVARIANT_SCOPES = {"r": "ClientRoleT", "u": "ServerGroupT"}

#: gauge kind -> fan-out writes.  Latency and bandwidth are mirrored onto
#: the client role of the client's link, where Figure 5's ``badRole``
#: reads them; the role is written after the element, and only when the
#: link and its role exist.
GAUGE_PROPERTY_MAP = {
    "latency": ((component, "averageLatency"), (client_role, "averageLatency")),
    "bandwidth": ((client_link, "bandwidth"), (client_role, "bandwidth")),
    "load": "load",
    "utilization": "utilization",
}


@register_scenario(
    "client_server",
    params=ClientServerParams,
    description="the paper's Figure 6/7 grid experiment",
)
class Experiment(ScenarioExperiment):
    """One wired client/server experiment, ready to run.

    The runtime layer (network, application, workload) is built here; the
    adaptation stack is the shared skeleton's
    :class:`AdaptationRuntime`, built when the config asks for it.
    """

    RESULT = ClientServerResult
    params: ClientServerParams

    def setup(self) -> None:
        params = self.params
        self.testbed: Testbed = build_testbed()
        self.network = FlowNetwork(self.sim, self.testbed.topology)
        self.remos = RemosService(
            self.sim,
            self.network,
            cold_delay=params.remos_cold_delay,
            warm_delay=params.remos_warm_delay,
        )
        self.workload: Workload = build_workload(
            horizon=self.config.horizon,
            baseline_rate=params.baseline_rate,
            stress_rate=params.stress_rate,
            quiescent_end=params.quiescent_end,
            stress_start=params.stress_start,
            stress_end=params.stress_end,
        )
        self._build_application()
        self._build_competition()

    def _build_runtime(self) -> Optional[AdaptationRuntime]:
        runtime = super()._build_runtime()
        if runtime is not None and self.params.remos_prewarm:
            self.remos.prewarm_all_hosts()
        return runtime

    # ------------------------------------------------------------------
    # Runtime layer
    # ------------------------------------------------------------------
    def _build_application(self) -> None:
        params = self.params
        tb = self.testbed
        self.app = GridApplication(
            self.sim,
            self.network,
            rq_machine=tb.machine_of["RQ"],
            trace=self.trace,
        )
        self.env = EnvironmentManager(self.app, self.remos)
        size_fn = self.workload.size_fn()
        for name in tb.clients:
            self.app.add_client(
                Client(
                    self.sim,
                    name,
                    machine=tb.machine_of[name],
                    rate=self.workload.request_rate,
                    size_fn=size_fn,
                    rng=self.seeds.rng(f"client.{name}"),
                    request_size=self.workload.request_size,
                    latency_horizon=params.latency_horizon,
                )
            )
        for name in tb.servers:
            self.app.add_server(
                Server(
                    self.sim,
                    name,
                    machine=tb.machine_of[name],
                    network=self.network,
                    service_base=params.service_base,
                    service_per_byte=params.service_per_byte,
                )
            )
        for group, servers in tb.initial_groups.items():
            self.env.create_req_queue(group)
            for server in servers:
                self.env.connect_server(server, group)
                self.env.activate_server(server)
        for client, group in tb.initial_assignments.items():
            self.app.rq.assign(client, group)

    def _build_competition(self) -> None:
        tb, wl = self.testbed, self.workload
        self.sources = [
            CrossTrafficGenerator(
                self.sim,
                self.network,
                "comp_A",
                tb.competition_a[0],
                tb.competition_a[1],
                wl.competition_a,
                horizon=wl.horizon,
            ),
            CrossTrafficGenerator(
                self.sim,
                self.network,
                "comp_B",
                tb.competition_b[0],
                tb.competition_b[1],
                wl.competition_b,
                horizon=wl.horizon,
            ),
        ]

    # ------------------------------------------------------------------
    # The managed application (consumed by AdaptationRuntime)
    # ------------------------------------------------------------------
    def architecture(self):
        return build_client_server_model(
            "GridModel",
            assignments=self.testbed.initial_assignments,
            groups=self.testbed.initial_groups,
            family=build_client_server_family(),
        )

    def intent_executor(self, runtime: AdaptationRuntime) -> Translator:
        costs = TranslationCosts(cached_gauges=self.params.gauge_caching)
        return Translator(
            self.env,
            costs,
            gauge_manager=runtime.gauge_manager,
            trace=runtime.trace,
        )

    def runtime_view(self) -> RuntimeView:
        return AppRuntimeView(self.env)

    def _monitoring_delay(self) -> Any:
        """Bus delivery model: in-band monitoring slows under congestion.

        "The same network is being used to monitor the system as to run
        it" (§5.3).  Without QoS, delivery delay grows steeply once the
        competition links saturate; the A2 ablation turns on QoS
        prioritization (fixed small delay).
        """
        if self.params.monitoring_qos:
            return FixedDelay(0.05)
        penalty = self.params.congestion_penalty
        net = self.network

        def delay(_message) -> float:
            util = max(
                net.link_utilization("R2", "R3"),
                net.link_utilization("R2", "R4"),
            )
            if util <= 0.9:
                return 0.05
            return 0.05 + penalty * min(1.0, (util - 0.9) / 0.1)

        return CallableDelay(delay)

    def _adaptation_spec(self) -> AdaptationSpec:
        """The client/server scenario's control plane, declaratively.

        Instrument order matters (gauge activations are scheduled at
        creation; ties break in scheduling order) and mirrors the paper's
        deployment: per client a latency event probe and its gauge, then
        a bandwidth probe and its gauge; per group a queue-length probe
        and load gauge, plus the utilization pair when the shrink repair
        is on.
        """
        params = self.params
        app, remos = self.app, self.remos

        dsl_source = FIGURE5_DSL
        if params.underutilization_repair:
            dsl_source = dsl_source + "\n" + UNDERUTILIZATION_DSL

        report = {"period": params.gauge_period}
        client_rows = [
            (
                "latency",
                partial(ClientLatencyProbe, app=app),
                WindowedMeanGauge,
                {**report, "horizon": params.latency_horizon},
            ),
            (
                "bandwidth",
                partial(
                    BandwidthProbe,
                    app=app,
                    remos=remos,
                    period=params.bandwidth_probe_period,
                ),
                LatestValueGauge,
                report,
            ),
        ]
        group_rows = [
            (
                "load",
                app.group_load,
                WindowedMeanGauge,
                {**report, "horizon": params.load_horizon},
            ),
        ]
        if params.underutilization_repair:
            group_rows.append(
                (
                    "utilization",
                    partial(UtilizationProbe, app=app, period=params.gauge_period),
                    EwmaGauge,
                    report,
                )
            )
        clients = monitoring_table(self.testbed.clients, client_rows)
        groups = monitoring_table(
            self.testbed.initial_groups, group_rows, period=params.load_probe_period
        )
        return AdaptationSpec(
            style="ClientServerFam",
            dsl_source=dsl_source,
            invariant_scopes=_INVARIANT_SCOPES,
            bindings={
                "maxLatency": params.max_latency,
                "maxServerLoad": params.max_server_load,
                "minBandwidth": params.min_bandwidth,
                "minServers": params.min_servers,
                "minUtilization": params.min_utilization,
            },
            operators=lambda rt: style_operators(lambda: rt.sim.now),
            instruments=clients + groups,
            gauge_property_map=GAUGE_PROPERTY_MAP,
            delivery=self._monitoring_delay(),
            gauge_create_delay=14.0,
            **params.spec_settings(self.config.seed),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def series(self):
        """The paper's measurement scripts, one row per series.

        * ``latency.<client>``    — windowed mean latency (Figures 8/11);
        * ``load.<group>``        — request-queue length (Figures 9/13);
        * ``replication.<group>`` — active replicas (spare activations);
        * ``utilization.<group>`` — the group's busy fraction;
        * ``bandwidth.<client>``  — predicted bandwidth to the client's
          current group, worst active member (Figures 10/12; sampled for
          :data:`~repro.experiment.metrics.BANDWIDTH_CLIENTS`, the clients
          the competition targets);
        * ``repair.active``       — 1 while a repair is in flight (the
          interval marks at the top of Figures 11-13).
        """
        app, sim = self.app, self.sim
        for name in self.testbed.clients:
            window = app.clients[name].latency_window
            yield f"latency.{name}", "s", lambda w=window: w.mean(sim.now)
        for name in self.testbed.initial_groups:
            group = app.groups[name]
            yield f"load.{name}", "requests", lambda g=group: g.load
            yield f"replication.{name}", "servers", lambda g=group: g.replication
            yield f"utilization.{name}", "", lambda g=group: g.utilization(sim.now)
        for name in BANDWIDTH_CLIENTS:
            yield (
                f"bandwidth.{name}",
                "bps",
                lambda c=name: app.bandwidth_between(c, app.rq.assignment_of(c)),
            )
        yield "repair.active", "", self.repair_active

    def start_extras(self) -> None:
        # clients start after the control plane's probes (ties break in
        # scheduling order; the fingerprints pin this)
        self.app.start_clients(self.config.horizon)

    def outcome(self, stats) -> Dict[str, Any]:
        return {
            "issued": self.app.total_issued,
            "completed": self.app.total_completed,
            "dropped": sum(s.dropped for s in self.app.servers.values()),
            "remos_stats": self.remos.stats,
        }


# ---------------------------------------------------------------------------
# Result cache (benches share the two 30-minute headline runs)
# ---------------------------------------------------------------------------


class _ResultCache:
    """Bounded LRU keyed by :meth:`RunConfig.cache_key`.

    Long parameter sweeps touch many configs; an unbounded dict of full
    :class:`RunResult` objects (series + traces) grows without limit.
    The default cap of 32 comfortably covers the headline runs plus
    every ablation the benches share.
    """

    def __init__(self, capacity: int = 32):
        self._data: "OrderedDict[Tuple, RunResult]" = OrderedDict()
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Tuple) -> Optional[RunResult]:
        result = self._data.get(key)
        if result is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: Tuple, result: RunResult) -> None:
        self._data[key] = result
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def resize(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()


_CACHE = _ResultCache()


def run_scenario(config: RunConfig, fresh: bool = False) -> RunResult:
    """Run (or fetch the cached result of) one scenario.

    Dispatches through the scenario registry
    (:mod:`repro.experiment.scenarios`) on ``config.scenario``, so any
    registered scenario — built-in or user-registered — runs through the
    same caching front door.  ``fresh=True`` forces a re-run; the fresh
    result still replaces the cached entry for subsequent calls.
    """
    config = as_run_config(config)
    key = config.cache_key()
    if not fresh:
        cached = _CACHE.get(key)
        if cached is not None:
            return cached
    experiment = scenario_entry(config.scenario).builder(config)
    try:
        result = experiment.run()
    finally:
        # ScenarioExperiment.run() stops its own control plane; a
        # hand-rolled Scenario may not, and stop() is idempotent.
        runtime = experiment.build()
        if runtime is not None:
            runtime.stop()
    _CACHE.put(key, result)
    return result


def clear_cache() -> None:
    _CACHE.clear()


def set_cache_capacity(capacity: int) -> None:
    """Bound the result cache (evicting least-recently-used overflow)."""
    _CACHE.resize(capacity)
