"""Bench-regression gate: compare emitted ``BENCH_*.json`` vs baselines.

CI's ``bench-smoke`` job runs the X4, X5, X7 and X9 benches in fast mode,
then runs this script to compare each emitted
``benchmarks/out/BENCH_*.json`` against the committed baseline in
``benchmarks/baselines/``.  The build fails when any **gated metric**
regresses beyond its margin.

Margins are per metric, not global: metrics measured in *simulated* time
(X5's time-to-quiesce) or deterministic counters are reproducible to the
bit, so they gate tightly; wall-clock-derived speedups (X4) wobble with
runner load, so they get the wide fast-mode noise margin.  Either way
the headline tolerance is "fail if worse than baseline by more than the
margin" — improvements never fail, and a per-metric delta table is
always printed for the job log.

Every committed baseline must have a freshly emitted counterpart: a
bench that silently stopped running (collection error, renamed file,
skipped job step) exits with status **2** so it cannot pass as "nothing
regressed".

Usage::

    python benchmarks/compare_bench.py               # gate; exit 1/2 on fail
    python benchmarks/compare_bench.py --report-only # print deltas, exit 0
    python benchmarks/compare_bench.py --write       # rebaseline from out/

Baselines must be regenerated with ``BENCH_FAST=1`` (the mode CI runs);
a mode mismatch between baseline and current output is reported and
fails the gate rather than comparing apples to oranges.  The nightly
full-mode pipeline runs ``--report-only`` for exactly that reason: its
outputs are full-mode, so it reports the deltas against the fast
baselines without gating on them.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

HERE = pathlib.Path(__file__).parent
OUT_DIR = HERE / "out"
BASELINE_DIR = HERE / "baselines"

#: wall-clock-derived metrics wobble with runner load (fast-mode noise)
TIMING_MARGIN = 0.50
#: simulated-time and counter metrics are deterministic; keep these tight
EXACT_MARGIN = 0.10


@dataclass(frozen=True)
class Gate:
    """One metric of the delta table: where to find it and which
    direction is worse."""

    name: str
    extract: Callable[[Dict[str, Any]], Optional[float]]
    higher_is_better: bool = True
    margin: float = TIMING_MARGIN


def _largest_size_speedup(report: Dict[str, Any]) -> Optional[float]:
    """X4: incremental speedup over a full pass at the largest size present."""
    results = report.get("results", {})
    if not results:
        return None
    size = max(results, key=int)
    return results[size]["incremental"]["speedup"]


def _quiesce_at_4_shards(report: Dict[str, Any]) -> Optional[float]:
    """X7: simulated time-to-quiesce at the gated 4-shard sweep point."""
    for point in report.get("sweep", []):
        if point.get("shards") == 4:
            return point.get("quiesce_s")
    return None


GATES: Dict[str, List[Gate]] = {
    "BENCH_control_loop.json": [
        Gate(
            "incremental_speedup_at_max_size",
            _largest_size_speedup,
            higher_is_better=True,
            margin=TIMING_MARGIN,
        ),
        Gate(
            "violations_flatness",
            lambda r: r["violations_shape"]["flatness"],
            higher_is_better=False,
            margin=TIMING_MARGIN,
        ),
        # a count: scopes re-evaluated after 1 000 writes that moved no
        # value and 4 that did — one more than the baseline's 8 fails
        Gate(
            "unmoved_writes_scopes_evaluated",
            lambda r: r.get("unmoved_writes", {}).get("scopes_evaluated"),
            higher_is_better=False,
            margin=EXACT_MARGIN,
        ),
    ],
    "BENCH_fault_resilience.json": [
        Gate(
            "completed_ratio",
            lambda r: r.get("completed_ratio"),
            higher_is_better=True,
            margin=EXACT_MARGIN,
        ),
        Gate(
            "adapted_completed",
            lambda r: r.get("adapted_completed"),
            higher_is_better=True,
            margin=EXACT_MARGIN,
        ),
        Gate(
            "futile_aborts_with_quarantine",
            lambda r: r["quarantine"]["futile_aborts_with"],
            higher_is_better=False,
            margin=EXACT_MARGIN,
        ),
        Gate(
            "quarantine_aborts_avoided",
            lambda r: r["quarantine"]["aborts_avoided"],
            higher_is_better=True,
            margin=EXACT_MARGIN,
        ),
    ],
    "BENCH_sharding.json": [
        Gate(
            "throughput_ratio_4v1",
            lambda r: r["scaling"]["ratio_4v1"],
            higher_is_better=True,
            margin=EXACT_MARGIN,
        ),
        Gate(
            "quiesce_s_at_4_shards",
            _quiesce_at_4_shards,
            higher_is_better=False,
            margin=EXACT_MARGIN,
        ),
    ],
    "BENCH_concurrent_repairs.json": [
        Gate(
            "engine_speedup",
            lambda r: r["engine"]["speedup"],
            higher_is_better=True,
            margin=EXACT_MARGIN,
        ),
        Gate(
            "engine_disjoint_quiesce_s",
            lambda r: r["engine"]["disjoint_quiesce_s"],
            higher_is_better=False,
            margin=EXACT_MARGIN,
        ),
        Gate(
            "scenario_speedup",
            lambda r: r["scenario"]["speedup"],
            higher_is_better=True,
            margin=EXACT_MARGIN,
        ),
        Gate(
            "scenario_disjoint_quiesce_s",
            lambda r: r["scenario"]["disjoint_quiesce_s"],
            higher_is_better=False,
            margin=EXACT_MARGIN,
        ),
    ],
}


def _load(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _regressed(gate: Gate, baseline: float, current: float) -> bool:
    if gate.higher_is_better:
        return current < baseline * (1.0 - gate.margin)
    return current > baseline * (1.0 + gate.margin)


def compare(
    out_dir: pathlib.Path,
    baseline_dir: pathlib.Path,
    report_only: bool = False,
) -> int:
    rows: List[List[str]] = []
    failures = 0
    missing = 0
    # Every committed baseline is compared, gated or not: a baseline
    # whose bench silently stopped emitting must not pass the gate.
    filenames = set(GATES) | {path.name for path in baseline_dir.glob("BENCH_*.json")}
    for filename in sorted(filenames):
        gates = GATES.get(filename, [])
        current = _load(out_dir / filename)
        baseline = _load(baseline_dir / filename)
        if current is None:
            if baseline is None:
                continue  # gated bench with no baseline committed yet
            rows.append([filename, "-", "-", "-", "-", "MISSING OUTPUT"])
            missing += 1
            continue
        if baseline is None:
            rows.append([filename, "-", "-", "-", "-", "no baseline (skip)"])
            continue
        if bool(current.get("fast")) != bool(baseline.get("fast")):
            # Gating on cross-mode numbers would compare apples to
            # oranges; report-only still prints the deltas (that is the
            # nightly full-mode pipeline's whole point).
            if not report_only:
                rows.append([filename, "-", "-", "-", "-", "MODE MISMATCH"])
                failures += 1
                continue
            rows.append([filename, "-", "-", "-", "-", "mode mismatch (full vs fast)"])
        if not gates:
            rows.append([filename, "-", "-", "-", "-", "present (no gates)"])
            continue
        for gate in gates:
            base_value = gate.extract(baseline)
            cur_value = gate.extract(current)
            if base_value is None or cur_value is None:
                rows.append([filename, gate.name, "-", "-", "-", "metric missing"])
                continue
            delta = (cur_value - base_value) / base_value if base_value else 0.0
            bad = _regressed(gate, base_value, cur_value)
            if bad:
                failures += 1
            status = "FAIL" if bad else "ok"
            rows.append(
                [
                    filename,
                    gate.name,
                    f"{base_value:.3f}",
                    f"{cur_value:.3f}",
                    f"{delta:+.1%}",
                    status,
                ]
            )

    widths = [
        max(len(str(row[i])) for row in rows + [_HEADER])
        for i in range(len(_HEADER))
    ]
    for row in [_HEADER, ["-" * w for w in widths]] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    if report_only:
        print(
            f"\nreport-only: {failures} metric(s) outside margin, "
            f"{missing} output(s) missing (not gating)"
        )
        return 0
    if missing:
        print(
            f"\n{missing} committed baseline(s) have no freshly emitted "
            f"counterpart — did a bench stop running?"
        )
        return 2
    if failures:
        print(f"\n{failures} gated metric(s) regressed beyond margin")
        return 1
    print("\nall gated metrics within margin")
    return 0


_HEADER = ["bench", "metric", "baseline", "current", "delta", "status"]


def write_baselines(out_dir: pathlib.Path, baseline_dir: pathlib.Path) -> int:
    baseline_dir.mkdir(exist_ok=True)
    copied = 0
    for filename in GATES:
        src = out_dir / filename
        if not src.exists():
            print(f"skip {filename}: not present in {out_dir}")
            continue
        report = json.loads(src.read_text())
        if not report.get("fast"):
            print(f"refusing {filename}: baselines must be BENCH_FAST=1 runs")
            return 1
        shutil.copy(src, baseline_dir / filename)
        print(f"baselined {filename}")
        copied += 1
    return 0 if copied else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(OUT_DIR), type=pathlib.Path)
    parser.add_argument("--baselines", default=str(BASELINE_DIR), type=pathlib.Path)
    parser.add_argument(
        "--write",
        action="store_true",
        help="copy current fast-mode outputs into the baseline directory",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="print the delta table but always exit 0 (nightly full-mode "
        "runs report against fast baselines without gating)",
    )
    args = parser.parse_args(argv)
    if args.write:
        return write_baselines(args.out, args.baselines)
    return compare(args.out, args.baselines, report_only=args.report_only)


if __name__ == "__main__":
    sys.exit(main())
