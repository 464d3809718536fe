"""X4 — control-loop constraint checking: a full pass vs the incremental one.

The adaptation loop's hottest path is ``ConstraintChecker.check_all``:
every gauge report may trigger it, and the paper's viability argument
(Figures 8-13) rests on the control loop staying cheap relative to the
managed application.  The seed implementation re-evaluated every
invariant over every scope element per check — O(model) — while a real
control loop touches ~1% of the model between checks.

This bench builds synthetic architectures of 100/300/1000 components
(each with a latency/load/utilization property set and a role-carrying
link, mirroring the client/server shape), registers the style's three
invariant shapes (two type-scoped scope-local ones plus one system-wide
quantified one), dirties 1% of the components per round, and measures
rounds/sec and per-check latency for:

* ``full``        — every call asks for ``full=True``: all scopes, no reuse;
* ``incremental`` — the checker as the control loop calls it.

Both run the compiled closures; the tree-walking interpreter they are
pinned to is a test oracle (``tests/reference/``), not a path to time.

A second column shows the *shape* of one control-loop wake-up rather
than a ratio: ``violations()`` per call with a **fixed** number of dirty
and of violated scopes while only the model size varies.  The
incremental checker answers from its live violation set, so that cost
must stay flat (within 2x from the smallest to the largest size); the
full pass grows with the model.  It is measured with the two scope-local
invariants only — the quantified one reads every component by
definition, so its single re-evaluation is O(model) whatever the checker
does.

A third column is a count, not a time: ``scopes_evaluated`` spent by one
``violations()`` call after 1 000 writes that put back the value already
there (a quiet gauge re-reporting) and 4 that move it.  The model's
change log marks a write that moved nothing and the incremental checker
skips it, so it pays for the 4 moved scopes' slots only — 8, at every
model size; the full pass evaluates every slot whatever was written.
``compare_bench.py`` gates the count (the committed baseline was
rewritten in PR 18 to carry it; no other figure in it was re-judged).

Output: a rendered table artifact plus machine-readable
``out/BENCH_control_loop.json``.  The acceptance gate asserts >= 5x for
incremental over full at 300 components with 1% dirty per round.
``BENCH_FAST=1`` shrinks the sizes so CI smoke runs keep the emitters and
assertions honest without the full cost.
"""

import json
import os
import pathlib
import time

from repro.acme.system import ArchSystem
from repro.constraints.invariants import ConstraintChecker
from repro.util.tables import render_table

FAST = os.environ.get("BENCH_FAST", "") == "1"
SIZES = (30, 60) if FAST else (100, 300, 1000)
DIRTY_FRACTION = 0.01
GATE_SIZE = 300          # the acceptance-criterion size
GATE_SPEEDUP = 5.0
SHAPE_DIRTY = 4          # scopes re-dirtied before each violations() call
SHAPE_VIOLATED = 4       # scopes kept violated throughout
SHAPE_FLATNESS = 2.0     # largest / smallest size, incremental
UNMOVED_WRITES = 1000    # writes that repeat the value, before one call
MOVED_WRITES = 4         # writes that change it, before the same call

BINDINGS = {"maxLatency": 2.0, "maxLoad": 6.0, "minUtilization": 0.35}

OUT_DIR = pathlib.Path(__file__).parent / "out"


def build_model(n_components: int) -> ArchSystem:
    """A client/server-shaped synthetic model: components + role links."""
    system = ArchSystem(f"Synthetic{n_components}")
    for i in range(n_components):
        comp = system.new_component(f"n{i}", ["NodeT"])
        comp.set_property("latency", 1.0 + (i % 7) * 0.1)
        comp.set_property("load", float(i % 5))
        comp.set_property("utilization", 0.5 + (i % 4) * 0.1)
        comp.add_port("req", {"RequestT"})
        link = system.new_connector(f"link_n{i}", ["LinkT"])
        role = link.add_role("client", {"ClientRoleT"})
        role.set_property("latency", 1.0)
        system.attach(comp.port("req"), role)
    return system


def build_checker(quantified: bool = True) -> ConstraintChecker:
    checker = ConstraintChecker(bindings=dict(BINDINGS))
    checker.add_source("r", "latency <= maxLatency", scope_type="NodeT")
    checker.add_source(
        "u", "load <= maxLoad or utilization >= minUtilization",
        scope_type="NodeT",
    )
    if quantified:
        checker.add_source(
            "g", "forall n : NodeT in system.components | n.latency >= 0"
        )
    return checker


def run_variant(checker: ConstraintChecker, system: ArchSystem,
                n_components: int, rounds: int, full: bool):
    """``rounds`` checks, dirtying 1% of the components before each."""
    dirty_count = max(1, int(n_components * DIRTY_FRACTION))
    components = system.components
    cursor = 0
    checker.check_all(system)  # warm: compile + populate the cache
    start = time.perf_counter()
    results = None
    for round_no in range(rounds):
        for k in range(dirty_count):
            comp = components[(cursor + k) % n_components]
            comp.set_property("latency", 1.0 + ((round_no + k) % 9) * 0.1)
        cursor = (cursor + dirty_count) % n_components
        results = checker.check_all(system, full=full)
    elapsed = time.perf_counter() - start
    return elapsed, results


def violations_per_call_us(checker: ConstraintChecker, system: ArchSystem,
                           rounds: int, full: bool) -> float:
    """Mean microseconds per ``violations()`` call while SHAPE_VIOLATED
    scopes stay violated and SHAPE_DIRTY healthy ones are rewritten
    before every call; only the calls themselves are timed."""
    components = system.components
    for comp in components[:SHAPE_VIOLATED]:
        comp.set_property("latency", 9.0)
    healthy = len(components) - SHAPE_VIOLATED
    found = checker.violations(system)  # warm: compile + populate the cache
    spent = 0.0
    for round_no in range(rounds):
        for k in range(SHAPE_DIRTY):
            comp = components[SHAPE_VIOLATED + (round_no * SHAPE_DIRTY + k) % healthy]
            comp.set_property("latency", 1.0 + ((round_no + k) % 9) * 0.1)
        start = time.perf_counter()
        found = checker.violations(system, full=full)
        spent += time.perf_counter() - start
    assert [r.scope for r in found] == [c.name for c in components[:SHAPE_VIOLATED]]
    return 1e6 * spent / rounds


def unmoved_write_evaluations(
    checker: ConstraintChecker, system: ArchSystem, full: bool
) -> int:
    """``scopes_evaluated`` spent by the one ``violations()`` call that
    follows UNMOVED_WRITES value-repeating and MOVED_WRITES value-changing
    property writes (fewer than the change log holds)."""
    components = system.components
    checker.violations(system)  # warm: compile + populate the cache
    for k in range(UNMOVED_WRITES):
        comp = components[k % len(components)]
        comp.set_property("latency", comp.get_property("latency"))
    for comp in components[:MOVED_WRITES]:
        comp.set_property("latency", comp.get_property("latency") + 0.05)
    before = checker.stats["scopes_evaluated"]
    checker.violations(system, full=full)
    return checker.stats["scopes_evaluated"] - before


def run_comparison():
    variants = (("full", True), ("incremental", False))
    report = {}
    for size in SIZES:
        rounds = max(10, 6000 // size) if FAST else max(20, 30000 // size)
        per_size = {}
        reference_sample = None
        for label, full in variants:
            system = build_model(size)  # fresh model: identical dirt pattern
            checker = build_checker()
            elapsed, results = run_variant(checker, system, size, rounds, full)
            assert results is not None and all(r.ok for r in results)
            sample = [(r.invariant, r.scope, r.ok, r.error) for r in results]
            if reference_sample is None:
                reference_sample = sample
            else:
                assert sample == reference_sample, f"{label} diverged at {size}"
            per_size[label] = {
                "rounds": rounds,
                "seconds": elapsed,
                "checks_per_second": rounds / elapsed,
                "per_check_ms": 1000.0 * elapsed / rounds,
                "scopes_evaluated": checker.stats["scopes_evaluated"],
                "scopes_reused": checker.stats["scopes_reused"],
                # best of three: the flatness gate compares two of these
                "violations_per_call_us": min(
                    violations_per_call_us(
                        build_checker(quantified=False),
                        build_model(size),
                        rounds if full else rounds * 20,
                        full,
                    )
                    for _ in range(3)
                ),
                "unmoved_writes_scopes_evaluated": unmoved_write_evaluations(
                    build_checker(quantified=False), build_model(size), full
                ),
            }
        base = per_size["full"]["per_check_ms"]
        for label in per_size:
            per_size[label]["speedup"] = base / per_size[label]["per_check_ms"]
        report[size] = per_size
    return report


def test_x4_control_loop(artifact):
    report = run_comparison()

    rows = []
    for size, per_size in report.items():
        for label, stats in per_size.items():
            rows.append([
                size, label,
                round(stats["per_check_ms"], 4),
                int(stats["checks_per_second"]),
                stats["scopes_evaluated"],
                round(stats["speedup"], 1),
                round(stats["violations_per_call_us"], 1),
                stats["unmoved_writes_scopes_evaluated"],
            ])
    text = render_table(
        ["components", "variant", "per-check (ms)", "checks/s",
         "scopes evaluated", "speedup (x)",
         f"violations() us @ {SHAPE_DIRTY} dirty / {SHAPE_VIOLATED} violated",
         f"scopes evaluated @ {UNMOVED_WRITES} unmoved + {MOVED_WRITES} moved writes"],
        rows,
        title=(
            f"X4: check_all with {DIRTY_FRACTION:.0%} dirty elements "
            f"per round{' [fast mode]' if FAST else ''}"
        ),
    )
    print(text)
    artifact("x4_control_loop", text)
    smallest, largest = (
        report[size]["incremental"]["violations_per_call_us"]
        for size in (min(report), max(report))
    )
    flatness = largest / smallest
    #: worst over the sizes: it is the same count at every size or a bug
    unmoved_evaluated = max(
        per_size["incremental"]["unmoved_writes_scopes_evaluated"]
        for per_size in report.values()
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_control_loop.json").write_text(
        json.dumps(
            {
                "bench": "x4_control_loop",
                "fast": FAST,
                "dirty_fraction": DIRTY_FRACTION,
                "sizes": list(SIZES),
                "violations_shape": {
                    "dirty": SHAPE_DIRTY,
                    "violated": SHAPE_VIOLATED,
                    "flatness": flatness,
                },
                "unmoved_writes": {
                    "unmoved": UNMOVED_WRITES,
                    "moved": MOVED_WRITES,
                    "scopes_evaluated": unmoved_evaluated,
                },
                "results": {str(k): v for k, v in report.items()},
            },
            indent=2,
        )
        + "\n"
    )

    # The incremental check must beat the full pass everywhere...
    for size, per_size in report.items():
        assert per_size["incremental"]["speedup"] > 1.0, (
            f"no speedup at {size} components"
        )
    # ...and by >= 5x at the acceptance size (full runs only).
    if GATE_SIZE in report:
        speedup = report[GATE_SIZE]["incremental"]["speedup"]
        assert speedup >= GATE_SPEEDUP, (
            f"incremental only {speedup:.1f}x at {GATE_SIZE} components"
        )
    # A write that moved nothing costs no evaluation: two scope-local
    # invariants per moved component, nothing for the thousand others.
    assert unmoved_evaluated == 2 * MOVED_WRITES, (
        f"{unmoved_evaluated} scopes evaluated after {UNMOVED_WRITES} unmoved "
        f"+ {MOVED_WRITES} moved writes (want {2 * MOVED_WRITES})"
    )
    # One wake-up costs O(dirty + violated): model size must not show.
    assert flatness <= SHAPE_FLATNESS, (
        f"violations() per call grew {flatness:.2f}x from {min(report)} to "
        f"{max(report)} components at fixed dirty/violated counts"
    )
