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

Workloads, both after the benchmark's warm-up periods:

* ``steady`` — every pool healthy: ingest, bus, gauges and model writes;
* ``storm`` — the ``storm_1k`` schedule: each period a cohort of 1/50 of
  the pools goes hot and is repaired, two periods later it idles and is
  shrunk back.

The adaptation part is ``storm`` minus ``steady`` calls per period, and
its scaling exponent between two sizes is ``log(a2 / a1) / log(n2 / n1)``.

Usage::

    python tools/callcount.py                    # N = 250, 1000, 4000
    python tools/callcount.py --pools 250 1000 --periods 6

The output is strict JSON on stdout (sorted keys, no NaN), the same bytes
under any ``PYTHONHASHSEED``.  The default run takes about 16 s on a
2-core host, most of it at N = 4000.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT / "src", ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from e2e import workloads  # noqa: E402
from e2e.plane import SIM_PLANE  # noqa: E402
from e2e.trace import ENTRY_POINTS, _bus_kind  # noqa: E402

OTHER = "other"


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
        """Call ``function()`` with the hook installed."""
        self.stack.clear()
        sys.setprofile(self.hook)
        try:
            function()
        finally:
            sys.setprofile(None)
        self.stack.clear()


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
    calls = dict(sorted(counter.calls.items()))
    total = sum(calls.values())
    return {
        "samples": samples,
        "calls": total,
        "calls_per_sample": round(total / samples, 6),
        "layers_per_sample": {k: round(v / samples, 6) for k, v in calls.items()},
    }


def exponent(small: float, large: float, n_small: int, n_large: int) -> Optional[float]:
    if small <= 0 or large <= 0:
        return None
    return round(math.log(large / small) / math.log(n_large / n_small), 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pools", type=int, nargs="+", default=[250, 1000, 4000])
    parser.add_argument("--periods", type=int, default=12)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sizes = sorted(set(args.pools))
    report: Dict[str, object] = {"seed": args.seed, "periods": args.periods}
    adaptation: Dict[str, float] = {}
    for kind in ("steady", "storm"):
        report[kind] = {
            str(n): count(n, kind == "storm", args.periods, args.seed) for n in sizes
        }
    for n in sizes:
        steady, storm = report["steady"][str(n)], report["storm"][str(n)]
        adaptation[str(n)] = round((storm["calls"] - steady["calls"]) / args.periods, 3)
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
