"""X8 — columnar telemetry plane: samples/sec into 1000 windowed gauges.

The scalar telemetry path publishes one bus message per probe sample and
feeds each one into a pure-python :class:`SlidingWindow` — per-sample
message construction, trie matching, handler dispatch, and window
arithmetic.  The columnar path (X8) publishes one message per *burst*
carrying parallel ``times``/``values`` float64 arrays, and the gauge
performs a single vectorized :meth:`ColumnarWindow.add_many` per burst:
the per-sample python work collapses to ``1/batch`` of a message plus
numpy array ops.

This bench deploys 1000 :class:`WindowedMeanGauge` instances (scalar
windows vs columnar ones) on a real batched bus, drives identical
per-gauge sample streams down both paths — the scalar path as ``batch``
per-sample messages per gauge per round, the columnar path as one array
message with the same capture times — and measures end-to-end
**samples consumed per wall-clock second** (publish through window
update).  Both paths must land bit-for-bit identical window means; the
columnar path must be >= 10x faster in full mode (>= 3x in trimmed fast
mode, where the batch is too small to amortize fully).

The speedup divides by the scalar path, whose cost is one publish and
one delivery event per sample.  PR 17 cut both (no second subject
validation per publish; same-instant deliveries share one heap entry),
so the scalar ``samples_per_s`` rose more than the columnar one and the
ratio came down toward its floors without either path getting slower;
``compare_bench.py`` prints both absolute rates under the gated ratio.

Output: the usual text artifact plus ``out/BENCH_telemetry.json``.
``BENCH_FAST=1`` trims gauges/rounds/batch so the CI smoke job exercises
the gate cheaply.
"""

import json
import os
import pathlib
import time

import numpy as np

from repro.bus import EventBus, FixedDelay, QueuePolicy
from repro.monitoring.gauges import WindowedMeanGauge
from repro.sim import Simulator
from repro.util.tables import render_table

FAST = os.environ.get("BENCH_FAST", "") == "1"
GAUGES = 200 if FAST else 1000
ROUNDS = 3 if FAST else 6
BATCH = 40 if FAST else 250  # samples per gauge per round
TICK = 1.0  # sim seconds between rounds
HORIZON = 3.5 * TICK  # spans ~3 rounds, so expiry is exercised
SPEEDUP_FLOOR = 3.0 if FAST else 10.0

OUT_DIR = pathlib.Path(__file__).parent / "out"


def build_plane(columnar: bool):
    """1000 windowed gauges, each consuming its own probe subject.

    Both variants ride the batched bus (PR 5's delivery path) so the
    comparison isolates the telemetry plane itself: per-sample messages
    into python windows vs per-burst array messages into numpy ones.
    """
    sim = Simulator()
    bus = EventBus(
        sim,
        delivery=FixedDelay(0.001),
        batched=True,
        queue_policy=QueuePolicy(),
    )
    gauge_bus = EventBus(sim, name="gauge-bus")
    gauges = []
    for i in range(GAUGES):
        gauge = WindowedMeanGauge(
            sim,
            bus,
            gauge_bus,
            "bench",
            f"G{i}",
            period=1e9,  # the report loop never ticks inside the run
            horizon=HORIZON,
            columnar=columnar,
        )
        # Consume without spawning 1000 report processes: the bench
        # measures probe->window throughput, not the report loop.
        gauge.active = True
        gauges.append(gauge)
    return sim, bus, gauges


def round_values(rnd: int) -> np.ndarray:
    """One round's sample values (identical for both paths, per gauge)."""
    return ((np.arange(BATCH, dtype=np.float64) + rnd * BATCH) % 97.0) * 0.25


def drive(columnar: bool):
    """Publish ROUNDS x BATCH samples into every gauge; time the loop.

    Each round advances simulated time by TICK, publishes the round's
    samples (per-sample messages or one array message per gauge), and
    drains the bus.  Capture times on the columnar path equal the scalar
    path's delivery times, so the window contents are identical.
    """
    sim, bus, gauges = build_plane(columnar)
    samples = 0
    start = time.perf_counter()
    for rnd in range(ROUNDS):
        sim.run(until=rnd * TICK)
        values = round_values(rnd)
        if columnar:
            times = np.full(BATCH, rnd * TICK + 0.001)
            for i in range(GAUGES):
                bus.publish_subject(f"probe.bench.G{i}", times=times, values=values)
            samples += BATCH * GAUGES
        else:
            scalars = [float(v) for v in values]
            for i in range(GAUGES):
                subject = f"probe.bench.G{i}"
                for value in scalars:
                    bus.publish_subject(subject, value=value)
            samples += BATCH * GAUGES
        sim.run(until=rnd * TICK + 0.5)  # drain this round's deliveries
    seconds = time.perf_counter() - start
    now = (ROUNDS - 1) * TICK + 0.5
    means = [gauge.window.mean(now) for gauge in gauges]
    counts = [gauge.window.count(now) for gauge in gauges]
    return {
        "columnar": columnar,
        "seconds": seconds,
        "samples": samples,
        "messages": bus.published,
        "samples_per_s": samples / seconds,
        "means": means,
        "window_counts": counts,
    }


def run_comparison():
    return {"scalar": drive(False), "columnar": drive(True)}


def test_x8_telemetry(benchmark, artifact):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    scalar, columnar = results["scalar"], results["columnar"]
    speedup = columnar["samples_per_s"] / scalar["samples_per_s"]

    rows = [
        [
            "wall time (s)",
            round(scalar["seconds"], 3),
            round(columnar["seconds"], 3),
        ],
        ["samples consumed", scalar["samples"], columnar["samples"]],
        ["bus messages", scalar["messages"], columnar["messages"]],
        [
            "throughput (samples/s)",
            int(scalar["samples_per_s"]),
            int(columnar["samples_per_s"]),
        ],
        ["speedup (x)", 1.0, round(speedup, 1)],
    ]
    text = render_table(
        ["metric", "scalar windows", "columnar windows"],
        rows,
        title=(
            f"X8: telemetry plane at {GAUGES} gauges, "
            f"{ROUNDS} rounds x {BATCH} samples/gauge"
        ),
    )
    print(text)
    artifact("x8_telemetry", text)
    OUT_DIR.mkdir(exist_ok=True)
    report = {
        "bench": "x8_telemetry",
        "fast": FAST,
        "gauges": GAUGES,
        "rounds": ROUNDS,
        "batch": BATCH,
        "results": {
            label: {
                k: v
                for k, v in result.items()
                if k not in ("means", "window_counts")
            }
            for label, result in results.items()
        },
        "speedup": speedup,
    }
    (OUT_DIR / "BENCH_telemetry.json").write_text(json.dumps(report, indent=2) + "\n")

    # Identical telemetry: same live-sample counts and bit-for-bit means.
    assert scalar["samples"] == columnar["samples"] > 0
    assert scalar["window_counts"] == columnar["window_counts"]
    assert scalar["means"] == columnar["means"]
    # The columnar plane collapses per-sample messages into per-burst ones...
    assert columnar["messages"] * BATCH == scalar["messages"]
    # ...and clears the samples/sec floor for this mode.
    assert speedup >= SPEEDUP_FLOOR, f"columnar speedup only {speedup:.1f}x"
