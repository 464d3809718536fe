"""X6 — batched per-subscriber delivery: publish-to-drain throughput.

The unbatched bus schedules one simulator event per (subscription,
message) pair, so a gauge-tick burst fanning out to hundreds of
subscribers pays hundreds of heap operations per message before a
single handler runs.  The batched path appends one shared message
reference per subscriber queue and drains each subscriber once per busy
period, so a whole burst costs one event per *touched subscriber*.

This bench deploys a fan-in population of 500 subscriptions that all
consume the probe firehose (the gauge-fan-in shape the ``map_reduce``
scenario multiplies: every subscriber sees every report), drives
gauge-tick-shaped bursts (many reports at the same instant), and
measures **publish-to-drain** throughput: messages published *and*
delivered per wall-clock second, timed from the first publish of a
round to the drain of its last handler burst.  Both paths must deliver
the identical per-subscriber message counts; the batched path must
stay faster at 500 subscriptions by the margin ``SPEEDUP_FLOOR`` sets
(1.5x in full mode; in the trimmed fast mode, not slower; it began as
3x — the next two paragraphs say where the rest went).

The speedup is a ratio over the *per-message* path, and PR 17 made that
path cheaper: a burst published at one sim instant lands as deliveries
at one instant, and the kernel now keeps those 500 x burst same-instant
events in one FIFO behind one heap entry instead of pushing and popping
each through the heap.  The batched path had little of that cost to
lose, so both absolute rates rose and the ratio between them fell (fast
mode: from 4.8-5.9x to about 3x; full mode: 6.6x to 4.2x).  Read the
two ``delivered_per_s`` figures, which ``compare_bench.py`` prints under
the gated ratio, before reading a lower ratio as a slower batched path.

PR 18 did it again, from the other end of the same path: a delivery in
flight now holds one collector-counted object of its own (its ``args``
tuple) where it held three (a bound ``_deliver`` made per ``schedule``
and the agenda's ``(fn, args)`` pair are gone), and this bench keeps
500 x burst of them in flight at once.  Per-message deliveries/s rose
75-90 % (fast mode 440-620k -> 870k-1.14M over 8 + 12 runs; full mode
330-370k -> 610-680k) while the batched path, which never made those
objects, stayed where it was (1.3-2.0M fast, 1.25-1.54M full) — so the
ratio fell to a median 1.75x in fast mode (parent 2.41-4.42x over 8
runs) and 1.85-2.47x in full mode (3 runs; parent 4.03-4.35x over 2).
A ratio this close to 1 shows what the trimmed legs' noise always was:
62 single-leg fast runs spread 0.58-2.13x (one host hiccup in a 0.15 s
leg), so fast mode now keeps the fastest of three legs per path — 25
such runs gave 1.10-2.10x, 23 of them 1.55x or more — and asks only
that batching not lose; full mode's floor is its lowest seen less a
sixth, the rule PR 17 used.  The baseline was rewritten from a
near-median fast run (1.79x).

Output: the usual text artifact plus ``out/BENCH_bus_batching.json``.
``BENCH_FAST=1`` trims rounds so the CI smoke job exercises the emitter
and the speedup gate cheaply.
"""

import json
import os
import pathlib
import time

from repro.bus import EventBus, FixedDelay, QueuePolicy
from repro.sim import Simulator
from repro.util.tables import render_table

FAST = os.environ.get("BENCH_FAST", "") == "1"
SUBSCRIPTIONS = 500
ENTITIES = 25
ROUNDS = 6 if FAST else 40
BURST = 4 if FAST else 40  # reports per entity per round
LEGS = 3 if FAST else 1  # timed repetitions per path; the fastest counts
#: module doc: fast mode (six trimmed rounds amortize less of the batched
#: path's setup) saw 1.10x at worst over 25 runs on PR 18, full mode 1.85x
#: over 3 — less a sixth
SPEEDUP_FLOOR = 1.0 if FAST else 1.5

OUT_DIR = pathlib.Path(__file__).parent / "out"


def build_bus(batched: bool):
    """One bus where every subscriber consumes the whole probe firehose.

    Half subscribe ``probe.>`` and half ``probe.*.*`` (two wildcard
    shapes through the trie), plus a few exact consumers — 500 total,
    every one matched by every ``probe.latency.E<i>`` report.  Each
    subscriber counts what it saw so both paths can be compared.
    """
    sim = Simulator()
    bus = EventBus(
        sim,
        delivery=FixedDelay(0.001),
        batched=batched,
        queue_policy=QueuePolicy(),
    )
    counts = {}

    def make_handler(tag):
        counts[tag] = 0

        def handler(_message):
            counts[tag] += 1

        return handler

    exact = 4
    tails = (SUBSCRIPTIONS - exact) // 2
    for j in range(tails):
        bus.subscribe("probe.>", make_handler(f"fire{j}"))
    for j in range(SUBSCRIPTIONS - exact - tails):
        bus.subscribe("probe.*.*", make_handler(f"star{j}"))
    for j in range(exact):
        bus.subscribe("probe.latency.E0", make_handler(f"exact{j}"))
    assert len(bus.subscriptions) == SUBSCRIPTIONS
    return sim, bus, counts


def burst_loop(sim, bus):
    """Gauge-tick bursts: every entity reports BURST times per round.

    Each round publishes its burst at one sim instant and then runs the
    simulator until every queued delivery drained — publish *and* drain
    are inside the timed window.  Returns (seconds, published).
    """
    published = 0
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for _ in range(BURST):
            for entity in range(ENTITIES):
                bus.publish_subject(f"probe.latency.E{entity}", latency=1.0)
                published += 1
        sim.run()  # drain the whole burst before the next round
    return time.perf_counter() - start, published


def timed_leg(batched: bool):
    """One fresh bus through the burst loop: (seconds, published, bus, counts)."""
    sim, bus, counts = build_bus(batched)
    seconds, published = burst_loop(sim, bus)
    return seconds, published, bus, counts


def run_comparison():
    results = {}
    for label, batched in (("unbatched", False), ("batched", True)):
        # a trimmed leg lasts 0.15-0.3 s, short enough for one host hiccup
        # to halve its rate: keep the fastest of LEGS fresh buses
        seconds, published, bus, counts = min(
            (timed_leg(batched) for _ in range(LEGS)), key=lambda leg: leg[0]
        )
        results[label] = {
            "batched": batched,
            "seconds": seconds,
            "published": published,
            "delivered": bus.delivered,
            "throughput_msgs_per_s": published / seconds,
            "delivered_per_s": bus.delivered / seconds,
            "drain_batches": bus.batches,
            "per_subscriber": counts,
        }
    return results


def test_x6_bus_batching(benchmark, artifact):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    unbatched, batched = results["unbatched"], results["batched"]
    speedup = batched["delivered_per_s"] / unbatched["delivered_per_s"]

    wall = ["publish-to-drain wall time (s)"]
    wall += [round(unbatched["seconds"], 3), round(batched["seconds"], 3)]
    thru = ["throughput (delivered/s)"]
    thru += [int(unbatched["delivered_per_s"]), int(batched["delivered_per_s"])]
    rows = [
        wall,
        ["published", unbatched["published"], batched["published"]],
        ["delivered", unbatched["delivered"], batched["delivered"]],
        thru,
        ["drain batches", unbatched["drain_batches"], batched["drain_batches"]],
        ["speedup (x)", 1.0, round(speedup, 1)],
    ]
    text = render_table(
        ["metric", "per-message events", "batched queues"],
        rows,
        title=(
            f"X6: burst delivery at {SUBSCRIPTIONS} subscriptions, "
            f"{ROUNDS} rounds x {BURST * ENTITIES}-message bursts"
        ),
    )
    print(text)
    artifact("x6_bus_batching", text)
    OUT_DIR.mkdir(exist_ok=True)
    per_sub = {
        label: result.pop("per_subscriber") for label, result in results.items()
    }
    (OUT_DIR / "BENCH_bus_batching.json").write_text(
        json.dumps(
            {
                "bench": "x6_bus_batching",
                "fast": FAST,
                "subscriptions": SUBSCRIPTIONS,
                "rounds": ROUNDS,
                "burst": BURST,
                "results": results,
                "speedup": speedup,
            },
            indent=2,
        )
        + "\n"
    )

    # Identical delivery: same totals and the same per-subscriber counts.
    assert batched["published"] == unbatched["published"] > 0
    assert batched["delivered"] == unbatched["delivered"] > 0
    assert per_sub["batched"] == per_sub["unbatched"]
    # The batched path coalesces bursts into far fewer simulator events...
    assert batched["drain_batches"] < unbatched["delivered"] / 4
    # ...and clears the publish-to-drain floor at 500 subscriptions.
    assert speedup >= SPEEDUP_FLOOR, f"batched speedup only {speedup:.1f}x"
