"""Do two result sets of the e2e benchmark agree?

    python3 benchmarks/e2e/agree.py A.json B.json [--same-commit]

``A.json`` / ``B.json`` are ``run.py --out`` documents, ideally made with
``--repeats K`` so each (workload, metric) has K values.  Every
end-to-end metric is compared, workload by workload, against its bound
in ``BENCHMARK.json``:

* ``worse``    B's median is worse than A's by more than the bound;
* ``better``   B's median is better than A's by more than the bound —
  fine for a parent-vs-child table, a disagreement with ``--same-commit``
  (two sets of one commit should not differ by more than the bound);
* ``unresolved``  a set's own run-to-run spread (interquartile range over
  median) exceeds the bound, so the comparison proves nothing — unless
  every run of B is better than every run of A;
* ``agree``    otherwise.

On deterministic workloads run with equal seed and horizon, ``attempted``,
the behaviour digest and every exact per-layer counter must be identical.
Exit code 0 only if nothing is worse, unresolved or (``--same-commit``)
better, and nothing exact differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parents[2]


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range over median; None with fewer than two values."""
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def by_workload(document: dict) -> Dict[str, List[dict]]:
    groups: Dict[str, List[dict]] = defaultdict(list)
    for run in document["runs"]:
        groups[run["workload"]].append(run)
    return groups


def compare_metric(a: List[float], b: List[float], better: str, bound: float,
                   same_commit: bool) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / median_a
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    noisy = any(s > bound for s in spreads)
    b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
    if noisy and (same_commit or not b_always_better):
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    elif worse_by < -bound:
        status = "better"
    else:
        status = "agree"
    return {
        "a": median_a,
        "b": median_b,
        "worse_by": worse_by,
        "spread": max(spreads) if spreads else None,
        "status": status,
    }


def exact_differences(runs_a: List[dict], runs_b: List[dict]) -> List[str]:
    """Digest / attempted / exact-counter differences on comparable runs."""
    found = []
    for a in runs_a:
        for b in runs_b:
            comparable = a["deterministic"] and all(
                a[k] == b[k] for k in ("seed", "seconds", "quick", "traced")
            )
            if not comparable or a["truncated"] or b["truncated"]:
                continue
            for key in ("attempted", "digest"):
                if a[key] != b[key]:
                    found.append(f"{key}: {a[key]} != {b[key]}")
            for name, entry in a["metrics"].items():
                other = b["metrics"][name]
                if entry.get("exact") and entry["value"] != other["value"]:
                    found.append(f"{name}: {entry['value']} != {other['value']}")
    return sorted(set(found))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--same-commit", action="store_true",
                        help="two sets of one commit: 'better' disagrees too")
    args = parser.parse_args(argv)
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    groups_a = by_workload(json.loads(args.a.read_text()))
    groups_b = by_workload(json.loads(args.b.read_text()))

    bad = 0
    print(f"{'workload':18s} {'metric':15s} {'A':>12s} {'B':>12s} "
          f"{'B worse by':>10s} {'spread':>7s} {'bound':>6s}  status")
    for workload in (w["name"] for w in contract["workloads"]):
        runs_a = groups_a.get(workload, [])
        runs_b = groups_b.get(workload, [])
        if not runs_a or not runs_b:
            continue
        untraced_a = [r for r in runs_a if not r["traced"]]
        untraced_b = [r for r in runs_b if not r["traced"]]
        for spec in contract["end_to_end"] if untraced_a and untraced_b else ():
            name = spec["name"]
            row = compare_metric(
                [r["metrics"][name]["value"] for r in untraced_a],
                [r["metrics"][name]["value"] for r in untraced_b],
                spec["better"], spec["bound"], args.same_commit,
            )
            ok = row["status"] == "agree" or (
                row["status"] == "better" and not args.same_commit
            )
            bad += not ok
            shown = "n/a" if row["spread"] is None else f"{row['spread']:.1%}"
            print(f"{workload:18s} {name:15s} {row['a']:12.4f} {row['b']:12.4f} "
                  f"{row['worse_by']:+10.1%} {shown:>7s} {spec['bound']:6.0%}  "
                  f"{row['status']}")
        for difference in exact_differences(runs_a, runs_b):
            bad += 1
            print(f"{workload:18s} EXACT VALUE DIFFERS  {difference}")
        if any(not r["correct"] for r in runs_a + runs_b):
            bad += 1
            print(f"{workload:18s} a run is not correct (failed operations)")
    print(f"{bad} disagreement(s)" if bad else "the two sets agree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
