"""The live-adaptation demo: a real asyncio app adapted in wall time.

This is the end-to-end proof of the wall-clock plane, and the online
restaging of the paper's Figure 7 experiment: a running application is
pushed past its provisioned capacity, the architecture model notices
through gauges, and a committed repair resizes the real system while
clients keep measuring it from the outside.

The cast:

* the application — :class:`~repro.app.async_pool_app.AsyncWorkerPoolApp`,
  an asyncio HTTP server whose concurrency is gated by a resizable
  worker pool (starts at ``POOL_SIZE``, budget ``MAX_WORKERS``);
* the load — a closed-loop ``wrk``-style generator driving three
  phases: a calm ``warmup``, a ``burst`` of many concurrent
  connections that swamps the initial pool, and a small ``cooldown``;
* the control plane — the simulated task farm's style,
  :mod:`repro.styles.master_worker`: its model, its ``grow``/``shrink``
  operators and its pool-sizing script (``POOL_SIZING_DSL``) under the
  demo's own bindings, mounted on a
  :class:`~repro.realtime.driver.RealtimeDriver`: periodic probes
  sample the live queue depth and occupancy, a bus-ingested probe
  receives *client-side* latency pushed in from the load generator, and
  the translator actuates committed resizes back into the asyncio loop.

``run_live_demo(adapted=True)`` runs one such episode;
:func:`run_comparison` runs adapted and control (same app, same load,
no control plane) back to back and gates on the burst-phase p95:
adaptation must grow the pool during the burst, shrink it after, and
beat the control run's p95 by the required factor.  ``repro live-demo``
(:func:`main`) is the CLI front door; CI runs it with ``--check``.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any, Dict, List, Optional

from repro.acme.system import ArchSystem
from repro.app.async_pool_app import AsyncWorkerPoolApp, LoadGenerator, Phase
from repro.bus.bus import FixedDelay
from repro.monitoring.gauges import EwmaGauge, WindowedMeanGauge
from repro.monitoring.probes import IngestProbe
from repro.realtime.clock import WallClock
from repro.realtime.driver import RealtimeDriver
from repro.runtime import AdaptationRuntime, AdaptationSpec, ManagedApplication
from repro.runtime.spec import monitoring_table
from repro.styles.master_worker import (
    POOL_SIZING_DSL,
    build_master_worker_model,
    master_worker_operators,
)
from repro.translation import IntentRow, IntentTranslator

__all__ = [
    "build_live_pool_spec",
    "live_pool_intents",
    "LivePoolManagedApplication",
    "run_live_demo",
    "run_comparison",
    "main",
]

#: seconds a committed resize waits before it reaches the application
ACTUATION_DELAY = 0.05

#: the application: seconds of service per request, the initial (and
#: designed minimum) pool width, and the grow repair's worker budget
SERVICE_TIME = 0.05
POOL_SIZE = 2
MAX_WORKERS = 12

#: the sizing script's bindings.  Grow two workers per committed repair:
#: wall-clock bursts move faster than the simulated farm's, so single
#: steps would spend the burst still provisioning.
MAX_BACKLOG = 10.0
MIN_UTILIZATION = 0.75
LOW_WATER = 2.0
GROW_STEP = 2

#: monitoring and settle periods, in wall-clock seconds
PROBE_PERIOD = 0.1
GAUGE_PERIOD = 0.25
BACKLOG_HORIZON = 1.0
SETTLE_TIME = 0.4


def live_pool_intents(app: AsyncWorkerPoolApp) -> Dict[str, IntentRow]:
    """Committed resizes, actuated into the running asyncio app.

    The executor runs on the scheduler thread; the application's
    :meth:`~repro.app.async_pool_app.AsyncWorkerPoolApp.request_resize`
    hops onto the asyncio loop itself, so the cross-thread boundary is
    crossed exactly once, inside the app's sanctioned seam.
    """

    def resize(intent):
        app.request_resize(int(intent.args["size"]))

    row = IntentRow(ACTUATION_DELAY, resize)
    return {"addWorkers": row, "removeWorkers": row}


class LivePoolManagedApplication(ManagedApplication):
    """The asyncio worker pool wrapped for the adaptation runtime."""

    def __init__(self, app: AsyncWorkerPoolApp, min_workers: int):
        self.app = app
        self.min_workers = int(min_workers)

    def architecture(self) -> ArchSystem:
        return build_master_worker_model(
            "LivePoolModel",
            pool_size=self.app.pool_size,
            min_size=self.min_workers,
        )

    def intent_executor(self, runtime: AdaptationRuntime) -> IntentTranslator:
        return IntentTranslator(runtime.sim, live_pool_intents(self.app), runtime.trace)


def build_live_pool_spec(
    app: AsyncWorkerPoolApp, max_workers: int = MAX_WORKERS
) -> AdaptationSpec:
    """The live demo's control plane: the master_worker style, live.

    The model, the ``grow``/``shrink`` operators and the pool-sizing
    script are the task-farm style's own; the demo brings its bindings
    and instruments, tuned for wall-clock timescales: sub-second
    monitoring/settle periods (a wall-clock burst lasts seconds, not
    simulated minutes), a near-zero gauge deployment delay, and a
    bus-ingested ``latency`` probe fed by the load generator from
    outside the process.  ``latency`` is not a property the style
    declares; the first gauge report adds it to the pool.
    """
    window = {"period": GAUGE_PERIOD, "horizon": BACKLOG_HORIZON}
    instruments = monitoring_table(
        ["pool"],
        [
            ("backlog", lambda _: app.queue_depth, WindowedMeanGauge, window),
            (
                "utilization",
                lambda _: app.utilization(),
                EwmaGauge,
                {"period": GAUGE_PERIOD, "tau": 4 * GAUGE_PERIOD},
            ),
            # the push path: client-side latency enters over the bus via
            # RealtimeDriver.ingest -> IngestProbe, nothing polls for it
            (
                "latency",
                partial(IngestProbe, kind="latency"),
                WindowedMeanGauge,
                window,
            ),
        ],
        period=PROBE_PERIOD,
    )

    def _operators(rt: AdaptationRuntime) -> Dict[str, Any]:
        ops = master_worker_operators(max_workers=max_workers)
        return {"grow": ops["grow"], "shrink": ops["shrink"]}

    return AdaptationSpec(
        style="MasterWorkerFam",
        dsl_source=POOL_SIZING_DSL,
        invariant_scopes={"q": "WorkerPoolT", "u": "WorkerPoolT"},
        bindings={
            "maxBacklog": MAX_BACKLOG,
            "growStep": GROW_STEP,
            "minUtilization": MIN_UTILIZATION,
            "lowWater": LOW_WATER,
        },
        operators=_operators,
        instruments=instruments,
        gauge_property_map={
            "backlog": "backlog",
            "utilization": "utilization",
            "latency": "latency",
        },
        delivery=FixedDelay(0.01),
        gauge_create_delay=0.05,
        settle_time=SETTLE_TIME,
        failed_repair_cost=0.1,
        violation_policy="first",
    )


def default_phases(
    warmup: float = 2.0, burst: float = 10.0, cooldown: float = 3.5
) -> List[Phase]:
    return [
        ("warmup", 8, float(warmup)),
        ("burst", 64, float(burst)),
        ("cooldown", 4, float(cooldown)),
    ]


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = int(round(q * (len(ordered) - 1)))
    return ordered[index]


def run_live_demo(
    adapted: bool = True, phases: Optional[List[Phase]] = None
) -> Dict[str, Any]:
    """One live episode: start the app, drive the load, tear down.

    With ``adapted=True`` a :class:`RealtimeDriver` runs the control
    plane against the live app and every client-measured latency is
    pushed into its ingest probe; with ``adapted=False`` the identical
    app takes the identical load with no plane attached.
    """
    phases = phases if phases is not None else default_phases()
    clock = WallClock()
    app = AsyncWorkerPoolApp(service_time=SERVICE_TIME, pool_size=POOL_SIZE)
    app.start()
    driver: Optional[RealtimeDriver] = None
    try:
        on_latency = None
        if adapted:
            driver = RealtimeDriver(
                LivePoolManagedApplication(app, min_workers=POOL_SIZE),
                build_live_pool_spec(app),
                clock=clock,
            )
            driver.start()

            def on_latency(phase: str, seconds: float) -> None:
                driver.ingest("latency", "pool", seconds)

        load = LoadGenerator(app.host, app.port, clock, on_latency=on_latency)
        load.run(phases)
    finally:
        if driver is not None:
            driver.stop()
        app.stop()

    result: Dict[str, Any] = {
        "adapted": bool(adapted),
        "requests": len(load.samples),
        "connection_errors": load.errors,
        "pool_initial": POOL_SIZE,
        "pool_peak": app.peak_pool_size,
        "pool_final": app.pool_size,
        "phases": {
            name: {
                "requests": len(load.latencies(name)),
                "p50": _percentile(load.latencies(name), 0.50),
                "p95": _percentile(load.latencies(name), 0.95),
            }
            for name, _, _ in phases
        },
        "p95_overall": _percentile(load.latencies(), 0.95),
    }
    if driver is not None:
        history = driver.history
        committed = history.committed
        ops = [intent.op for record in committed for intent in record.intents]
        result["repairs"] = {
            "committed": len(history.committed),
            "aborted": len(history.aborted),
            "grew": ops.count("addWorkers"),
            "shrank": ops.count("removeWorkers"),
        }
        result["ingested"] = driver.ingested
        result["scheduler"] = {
            "executed": driver.scheduler.executed,
            "max_lag": round(driver.scheduler.max_lag, 4),
        }
    return result


def run_comparison(
    factor: float = 0.75, phases: Optional[List[Phase]] = None
) -> Dict[str, Any]:
    """Control vs adapted under identical load; gate on burst p95.

    The gates CI enforces: the adapted run grew the pool during the
    burst, shrank it again afterwards, and its burst-phase p95 beat the
    control run's by at least ``factor``.
    """
    control = run_live_demo(adapted=False, phases=phases)
    adapted = run_live_demo(adapted=True, phases=phases)
    control_p95 = control["phases"]["burst"]["p95"]
    adapted_p95 = adapted["phases"]["burst"]["p95"]
    checks = {
        "p95_improved": adapted_p95 < factor * control_p95,
        "grew_during_burst": adapted["repairs"]["grew"] > 0,
        "shrank_after_burst": adapted["repairs"]["shrank"] > 0,
        "pool_scaled_back": adapted["pool_final"] < adapted["pool_peak"],
    }
    return {
        "factor": factor,
        "control": control,
        "adapted": adapted,
        "burst_p95_control": control_p95,
        "burst_p95_adapted": adapted_p95,
        "speedup": (control_p95 / adapted_p95) if adapted_p95 > 0 else 0.0,
        "checks": checks,
        "ok": all(checks.values()),
    }


def main(args, out) -> int:
    """``repro live-demo``: compare, print, and gate on the comparison.

    ``args`` carries the subcommand's parsed ``check``, ``json``,
    ``fast`` and ``factor`` options (:func:`repro.cli.build_parser`).
    """
    phases = default_phases(1.0, 5.0, 2.0) if args.fast else None
    report = run_comparison(factor=args.factor, phases=phases)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        control, adapted = report["control"], report["adapted"]
        print(
            "control: burst p95 "
            f"{report['burst_p95_control'] * 1000:.0f} ms "
            f"(pool stays {control['pool_initial']})",
            file=out,
        )
        print(
            "adapted: burst p95 "
            f"{report['burst_p95_adapted'] * 1000:.0f} ms "
            f"(pool {adapted['pool_initial']} -> {adapted['pool_peak']} "
            f"-> {adapted['pool_final']}, "
            f"{adapted['repairs']['committed']} repairs committed)",
            file=out,
        )
        print(f"speedup: {report['speedup']:.2f}x", file=out)
        for name, passed in report["checks"].items():
            print(f"  [{'ok' if passed else 'FAIL'}] {name}", file=out)
    if args.check and not report["ok"]:
        return 1
    return 0
