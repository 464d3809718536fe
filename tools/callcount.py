#!/usr/bin/env python
"""Exact Python calls per telemetry sample, per layer, of the e2e plane.

Wall clock on a shared host spreads widely within minutes; the number of
Python function calls a control period makes does not.  This drives the
whole-plane benchmark's simulated plane (``benchmarks/e2e``, imported,
not edited) for a few periods at each size and counts, with the stdlib
profiler hook (``sys.setprofile``) around ``SimPlane.period`` only, every
Python call.  Each call is charged to the layer of its nearest enclosing
entry point of the e2e tracer's table (``e2e.trace.ENTRY_POINTS``);
calls under no entry point are charged to ``other``.

Workloads, all after the benchmark's warm-up periods:

* ``steady`` — every pool healthy: ingest, bus, gauges and model writes;
* ``storm`` — the ``storm_1k`` schedule: each period a cohort of 1/50 of
  the pools goes hot and is repaired, two periods later it idles and is
  shrunk back;
* ``react`` — the ``react_1k`` round, counted from the first violating
  ``ingest`` to the 10th effector call: report path, checker, engine.
  The first round runs uncounted: it builds the checker's session
  (a one-off that is a third of that round's calls at N = 1 000), which
  would hide the report path every later round repeats;
* ``live`` — the online plane (``e2e.plane.LIVE_PLANE``) on a
  ``FakeClock`` in one thread, flooded in chunks of 2 048 samples as
  ``live_ingest``'s closed loop floods it: each sample enters through
  ``RealtimeDriver.ingest`` and crosses ``call_soon_threadsafe`` to the
  paced loop, which runs it to the gauge fold.

The adaptation part is ``storm`` minus ``steady`` calls per period, and
its scaling exponent between two sizes is ``log(a2 / a1) / log(n2 / n1)``.

Usage::

    python tools/callcount.py                    # N = 250, 1000, 4000
    python tools/callcount.py --pools 250 1000 --periods 6
    python tools/callcount.py --pools 1000 --workloads live

The ``live`` row's flood is the same size at every N, so its gauge work
per sample grows with N.  The output is strict JSON on stdout (sorted
keys, no NaN), the same bytes under any ``PYTHONHASHSEED``.  The default
run takes about a minute on a 2-core host, most of it at N = 4000.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT / "src", ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from e2e import workloads  # noqa: E402
from e2e.plane import BATCH, LIVE_PLANE, SIM_PLANE, BenchApp, build_spec  # noqa: E402
from e2e.trace import ENTRY_POINTS, _bus_kind  # noqa: E402
from repro.realtime import FakeClock, RealtimeDriver  # noqa: E402

OTHER = "other"
WORKLOADS = ("steady", "storm", "react", "live")
#: flood chunks per gauge period in the ``live`` row
LIVE_CHUNKS = 10


def _entry_codes() -> Dict[object, tuple]:
    """Code object of each resolvable entry point -> (span, by_bus)."""
    codes: Dict[object, tuple] = {}
    for entry in ENTRY_POINTS:
        try:
            owner = importlib.import_module(entry.module)
            if entry.cls is not None:
                owner = getattr(owner, entry.cls)
            function = getattr(owner, entry.attr)
        except (ImportError, AttributeError):
            continue  # the tracer skips a row a refactor removed, too
        code = getattr(function, "__code__", None)
        if code is not None:
            codes[code] = (entry.span, entry.by_bus)
    return codes


class CallCounter:
    """A ``sys.setprofile`` hook: Python calls charged per layer."""

    def __init__(self) -> None:
        self.codes = _entry_codes()
        self.calls: Dict[str, int] = {}
        self.stack: List[str] = []

    def hook(self, frame, event, arg) -> None:
        if event == "call":
            stack = self.stack
            layer = stack[-1] if stack else OTHER
            entry = self.codes.get(frame.f_code)
            if entry is not None:
                span, by_bus = entry
                if by_bus:  # the receiver is an EventBus: split on its name
                    bus = frame.f_locals.get("self")
                    span = f"{span}.{_bus_kind(getattr(bus, 'name', '') or '')}"
                layer = span
            stack.append(layer)
            self.calls[layer] = self.calls.get(layer, 0) + 1
        elif event == "return":
            if self.stack:
                self.stack.pop()

    def run(self, function) -> None:
        """Call ``function()`` with the hook installed.

        The garbage collector's callbacks are detached meanwhile: they
        are the process's (a test library may have added one), and a
        collection pass would charge them to whatever layer it lands in.
        """
        self.stack.clear()
        callbacks = gc.callbacks[:]
        gc.callbacks.clear()
        sys.setprofile(self.hook)
        try:
            function()
        finally:
            sys.setprofile(None)
            gc.callbacks[:] = callbacks
        self.stack.clear()


def _per_sample(counter: CallCounter, samples: int) -> Dict[str, object]:
    calls = dict(sorted(counter.calls.items()))
    total = sum(calls.values())
    return {
        "samples": samples,
        "calls": total,
        "calls_per_sample": round(total / samples, 6),
        "layers_per_sample": {k: round(v / samples, 6) for k, v in calls.items()},
    }


def count(pools: int, storm: bool, periods: int, seed: int) -> Dict[str, object]:
    """Calls per layer over ``periods`` measured periods of one plane."""
    config = dataclasses.replace(SIM_PLANE, pools=pools)
    feeds = workloads.WARMUP_PERIODS + periods
    run = workloads.SimPlane(config, seed, feeds)
    schedule = workloads.StormSchedule(run.telemetry.order, config)
    for _ in range(workloads.WARMUP_PERIODS):
        run.period()
    counter = CallCounter()
    samples_before = run.samples
    for q in range(periods):
        if storm:
            schedule.apply(run.app, q, run.now, new_hot=True)
        counter.run(run.period)
    samples = run.samples - samples_before
    run.plane.runtime.stop()
    return _per_sample(counter, samples)


def count_react(pools: int, rounds: int, seed: int) -> Dict[str, object]:
    """Calls per layer over ``rounds`` rounds of ``react_1k`` after an
    uncounted first one, each counted from its violating batch to its
    ``REACT_K``-th effector call (the rest of the round, as there, runs
    uncounted)."""
    config = dataclasses.replace(SIM_PLANE, pools=pools)
    rounds += 1  # the first builds the checker's session
    run = workloads.SimPlane(config, seed, workloads.WARMUP_PERIODS + 2 * rounds)
    order, calls = run.telemetry.order, run.plane.effector.calls
    react_k = min(workloads.REACT_K, pools)
    for _ in range(workloads.WARMUP_PERIODS):
        run.period()
    counter = CallCounter()
    samples = 0
    for r in range(rounds):
        chosen = [int(order[(r * react_k + j) % pools]) for j in range(react_k)]
        run.app.demand[chosen] = run.app.size[chosen] + 1
        now = run.now
        latency, utilization = run.telemetry.rows(run.app, run.feeds)
        run.feeds += 1
        target, step = len(calls) + react_k, run.sim.step

        def react() -> None:
            for tick in range(BATCH):
                run.ingest(chosen, latency[tick], utilization[tick])
            while len(calls) < target and step():
                pass

        if r == 0:
            react()
        else:
            before = run.samples
            counter.run(react)
            samples += run.samples - before
        run.sim.run(until=now + config.gauge_period)
        run.period(chosen)
    run.plane.runtime.stop()
    return _per_sample(counter, samples)


def count_live(pools: int, periods: int, seed: int) -> Dict[str, object]:
    """Calls per layer over ``periods`` gauge periods of the online
    plane flooded as ``live_ingest``'s closed loop floods it: per
    period ``LIVE_CHUNKS`` chunks of ``2 * LIVE_CHUNK`` samples, each
    handed to ``RealtimeDriver.ingest`` and then run by the paced loop
    over its share of the period."""
    config = dataclasses.replace(LIVE_PLANE, pools=pools)
    driver = RealtimeDriver(BenchApp(config), build_spec(config), clock=FakeClock())
    app, ingest = driver.app, driver.ingest
    chunk = 2 * workloads.LIVE_CHUNK
    slice_s = config.gauge_period / LIVE_CHUNKS
    rng = random.Random(seed)
    driver.run_until(config.gauge_period)

    def flood(first: int) -> None:
        latency, utilization = app.latency(), app.utilization()
        for c in range(first, first + LIVE_CHUNKS):
            for j in range(c * chunk, (c + 1) * chunk):
                pool = (j // 2) % pools
                noise = 0.95 + 0.05 * rng.random()
                if j % 2:
                    ingest("utilization", app.tenants[pool], utilization[pool] * noise)
                else:
                    ingest("latency", app.tenants[pool], latency[pool] * noise)
            driver.run_until(config.gauge_period + (c + 1) * slice_s)

    for k in range(workloads.WARMUP_PERIODS):
        flood(k * LIVE_CHUNKS)
    counter = CallCounter()
    before = driver.ingested
    for k in range(workloads.WARMUP_PERIODS, workloads.WARMUP_PERIODS + periods):
        counter.run(lambda: flood(k * LIVE_CHUNKS))
    samples = driver.ingested - before
    driver.stop()
    return _per_sample(counter, samples)


def measure(kind: str, pools: int, periods: int, seed: int) -> Dict[str, object]:
    """One row of the report: ``kind`` (one of ``WORKLOADS``) at ``pools``.

    ``react`` rounds and ``live`` periods each carry a whole plane's
    work, so those rows count a third as many of them."""
    if kind == "react":
        return count_react(pools, max(1, periods // 3), seed)
    if kind == "live":
        return count_live(pools, max(1, periods // 3), seed)
    return count(pools, kind == "storm", periods, seed)


def exponent(small: float, large: float, n_small: int, n_large: int) -> Optional[float]:
    if small <= 0 or large <= 0:
        return None
    return round(math.log(large / small) / math.log(n_large / n_small), 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pools", type=int, nargs="+", default=[250, 1000, 4000])
    parser.add_argument("--periods", type=int, default=12)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS)
    )
    args = parser.parse_args(argv)
    sizes = sorted(set(args.pools))
    report: Dict[str, object] = {"seed": args.seed, "periods": args.periods}
    for kind in WORKLOADS:
        if kind in args.workloads:
            report[kind] = {
                str(n): measure(kind, n, args.periods, args.seed) for n in sizes
            }
    if "steady" in report and "storm" in report:
        adaptation: Dict[str, float] = {}
        for n in sizes:
            steady, storm = report["steady"][str(n)], report["storm"][str(n)]
            adaptation[str(n)] = round(
                (storm["calls"] - steady["calls"]) / args.periods, 3
            )
        report["adaptation_calls_per_period"] = adaptation
        report["adaptation_exponent"] = {
            f"{a}-{b}": exponent(adaptation[str(a)], adaptation[str(b)], a, b)
            for a, b in zip(sizes, sizes[1:])
        }
    json.dump(report, sys.stdout, sort_keys=True, indent=1, allow_nan=False)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
