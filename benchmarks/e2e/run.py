"""Whole-plane benchmark runner (``BENCHMARK.json``'s command).

One workload, in this process (what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload storm_1k --seed 7 --seconds 15 --trace 0

Several workloads (default: all six), each in its own fresh subprocess,
one after the other::

    python3 benchmarks/e2e/run.py [--repeats K] [--trace] [--quick] [--out PATH]

The last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are ``BENCHMARK.json``'s end-to-end metrics,
measured with tracing off; with ``--trace 1`` they are its per-layer
metrics, from a traced run on a quarter of the horizon (plus an untraced
one of the same length, for ``trace.overhead_ratio``).

Timing statistics are chosen for a shared 2-core sandbox whose speed
drifts by +-30 % in multi-second phases (README, "Noise"): throughput
and ``cycle_ms_fast`` use the fastest twentieth of the timed cycles.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT_DIR = REPO / "benchmarks" / "out" / "e2e"
#: share of the timed cycles (the fastest ones) behind the "fast" figures
FAST_SHARE = 0.05
#: a traced run covers this share of the untraced horizon
TRACED_SHARE = 0.25


def _bootstrap() -> dict:
    """Put ``src/`` and the ``e2e`` package on the path; load the contract.

    Exits non-zero where there is nothing to measure (no ``src/repro`` next to
    the benchmark): never fall back to some other installed ``repro``.
    """
    contract_path = REPO / "BENCHMARK.json"
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"e2e: no src/repro under {REPO}: nothing to benchmark")
    if not contract_path.is_file():
        sys.exit(f"e2e: {contract_path} is missing")
    # the package is imported as ``e2e`` from benchmarks/, so this
    # directory's trace.py never shadows the standard library's
    wanted = [str(REPO / "src"), str(HERE.parent)]
    sys.path[:] = wanted + [
        p for p in sys.path if p not in wanted and Path(p or ".").resolve() != HERE
    ]
    return json.loads(contract_path.read_text())


def fast_mean(values: List[float]) -> float:
    """Mean of the fastest ``FAST_SHARE`` of ``values`` (at least one)."""
    keep = max(1, int(len(values) * FAST_SHARE))
    return statistics.fmean(sorted(values)[:keep])


def end_to_end(outcome) -> Dict[str, dict]:
    """The end-to-end metrics of one untraced run: value and sample count."""
    cycles = outcome.cycles_ms
    rate_cycles = outcome.flood_cycles_ms or cycles
    per_cycle = outcome.flood_samples_per_cycle or outcome.samples_per_cycle
    return {
        "samples_per_s": {
            "value": per_cycle / (fast_mean(rate_cycles) / 1e3),
            "n": len(rate_cycles),
        },
        "cycle_ms_fast": {"value": fast_mean(cycles), "n": len(cycles)},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "n": 1,
        },
        "setup_s": {
            "value": statistics.median(outcome.setup_s),
            "n": len(outcome.setup_s),
        },
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(workload, seed: int, scale, declared: List[str]) -> Tuple[object, dict]:
    """Untraced then traced run on the same (short) horizon."""
    from e2e import workloads
    from e2e.trace import tracing

    untraced = workload.run(seed, scale)
    with tracing() as tracer:
        traced = workload.run(seed, scale)
    until = traced.finished_ns  # the oracle's own calls are not the plane's
    layers = tracer.layers(until)
    tracer.write(OUT_DIR / f"spans_{workload.name}.json")

    values: Dict[str, float] = {name: 0.0 for name in declared}
    for span, figures in layers.items():
        values[f"{span}.calls"] = figures["calls"]
        values[f"{span}.self_ms"] = figures["self_ms"]
    counters = dict(traced.counters)
    if not counters["sched.executed"]:
        counters["sched.executed"] = layers.get("sim.step", {}).get("calls", 0)
    values.update(counters)
    values.update(traced.extra)
    reused = counters["constraints.scopes_reused"]
    values["constraints.reuse_ratio"] = _ratio(
        reused, reused + counters["constraints.scopes_evaluated"]
    )
    suppressed = counters["telemetry.suppressed_reports"]
    values["gate.suppress_ratio"] = _ratio(
        suppressed, suppressed + counters["telemetry.wakeups"]
    )
    values["engine.repairs_per_eval"] = _ratio(
        counters["repairs.committed"] + counters["repairs.aborted"],
        counters["constraints.evaluations"],
    )
    sent = tracer.starts_ns("realtime.ingest", until)
    taken = tracer.starts_ns("probes.ingest", until)
    if len(sent) and len(taken):
        sent.sort()
        taken.sort()
        matched = min(len(sent), len(taken))
        wait_ms = (taken[:matched] - sent[:matched]) / 1e6
        values["ingest.queue_wait_ms_p50"] = workloads.percentile(wait_ms, 50)
    if workload.name == "paper_cs":
        values["app.control_sim_s_per_s"] = workloads.paper_cs_control(scale)
    timed = untraced.flood_cycles_ms or untraced.cycles_ms
    timed_traced = traced.flood_cycles_ms or traced.cycles_ms
    values["trace.overhead_ratio"] = _ratio(sum(timed_traced), sum(timed))
    root_ms = tracer.root_ms(until)
    self_ms = sum(figures["self_ms"] for figures in layers.values())
    values["trace.residual_ratio"] = _ratio(abs(root_ms - self_ms), root_ms)
    values["trace.missing"] = len(tracer.missing)
    # later PRs cannot edit this directory: a span or counter they add is
    # left out rather than breaking the contract's fixed metric set
    values = {name: float(values[name]) for name in declared}

    print(f"\n{workload.name}: layer table (traced, {len(timed_traced)} cycles)")
    print(f"  {'span':24s} {'calls':>10s} {'self ms':>11s} {'share':>7s}")
    for span, figures in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"]):
        share = _ratio(figures["self_ms"], root_ms)
        print(
            f"  {span:24s} {figures['calls']:10d} "
            f"{figures['self_ms']:11.2f} {share:7.1%}"
        )
    print(
        f"  root spans {root_ms:.2f} ms, self times {self_ms:.2f} ms "
        f"(residual {values['trace.residual_ratio']:.2%}); "
        f"missing entry points: {tracer.missing or 'none'}"
    )
    return traced, values


def run_one(contract: dict, name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Run one workload in this process; returns its result document."""
    from e2e import workloads

    workload = workloads.WORKLOADS[name]
    declared = contract["per_layer" if trace else "end_to_end"]
    if trace:
        scale = workloads.Scale(seconds * TRACED_SHARE, quick)
        outcome, flat = per_layer(workload, seed, scale, [m["name"] for m in declared])
        measured = {k: {"value": v, "n": 1} for k, v in flat.items()}
    else:
        outcome = workload.run(seed, workloads.Scale(seconds, quick))
        measured = end_to_end(outcome)

    metrics = {}
    for spec in declared:
        entry = dict(measured[spec["name"]], unit=spec["unit"], better=spec["better"])
        if "bound" in spec:
            entry["bound"] = spec["bound"]
        if trace:
            exact = workload.deterministic and spec["unit"] == "count"
            entry["exact"] = exact
        metrics[spec["name"]] = entry
    verdict = outcome.verdict
    cycles = outcome.cycles_ms
    percentile = workloads.percentile
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "quick": quick,  # quick runs are smoke tests, never comparable
        "truncated": outcome.truncated,
        "deterministic": workload.deterministic,
        "correct": verdict.correct and not outcome.truncated,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "failed_share": verdict.failed_share,
        "failures": verdict.failures,
        "digest": outcome.digest,
        "metrics": metrics,
        # for people, not for the contract: medians and tails are too
        # noisy on a shared host to be bounded (README, "Noise")
        "cycles_ms": {
            "n": len(cycles),
            "min": min(cycles),
            "p50": percentile(cycles, 50),
            "p80": percentile(cycles, 80),
            "p90": percentile(cycles, 90),
            "mean": statistics.fmean(cycles),
            "max": max(cycles),
        },
    }


def contract_line(results: List[dict], prefix: bool) -> str:
    """The last stdout line: exactly correct / attempted / failed / metrics."""
    metrics = {}
    for result in results:
        for metric, entry in result["metrics"].items():
            key = f"{result['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    return json.dumps(line, allow_nan=False)


def describe(result: dict) -> None:
    flags = [f for f in ("quick", "traced", "truncated") if result[f]]
    print(
        f"\n{result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']:g} {' '.join(flags)}\n"
        f"  attempted={result['attempted']} failed={result['failed']} "
        f"failed_share={result['failed_share']:.6f} digest={result['digest']}"
    )
    for message in result["failures"]:
        print(f"  FAILED: {message}")
    if result["quick"]:
        print("  quick run: a smoke test, never comparable with full runs")
    for metric, entry in result["metrics"].items():
        if result["traced"] and not entry["value"]:
            continue
        bound = f" bound={entry['bound']:g}" if "bound" in entry else ""
        print(
            f"  {metric:32s} {entry['value']:16.4f} {entry['unit']:10s}"
            f" better={entry['better']}{bound} n={entry['n']}"
        )


def write_documents(results: List[dict], out: Optional[Path]) -> None:
    document = {"benchmark": "e2e", "runs": results}
    text = json.dumps(document, indent=1, allow_nan=False)
    target = out if out is not None else OUT_DIR / "e2e.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text + "\n")
    # the trajectory tooling looks for BENCH_*.json at the repo root
    shutil.copyfile(target, REPO / "BENCH_e2e.json")


def main(argv: Optional[List[str]] = None) -> int:
    contract = _bootstrap()
    known = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default: all six")
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="nominal measured seconds per run (sets the horizons)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced run")
    parser.add_argument("--repeats", type=int, default=1,
                        help="fresh-process runs per workload")
    parser.add_argument("--quick", action="store_true",
                        help="N=50, 6 cycles: smoke only, never comparable")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds must be positive and --repeats at least 1")
    names = args.workload or known

    if len(names) == 1 and args.repeats == 1:
        result = run_one(contract, names[0], args.seed, args.seconds,
                         bool(args.trace), args.quick)
        describe(result)
        write_documents([result], args.out)
        print(contract_line([result], prefix=False))
        return 0  # the verdict is the line's "correct", not the exit code

    # several runs: one fresh subprocess each, strictly one after the other
    results = []
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in names:
        for repeat in range(args.repeats):
            scratch = OUT_DIR / f"run_{name}_{repeat}.json"
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(scratch)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            if not scratch.is_file():
                sys.exit(f"e2e: {name} run {repeat} produced no result "
                         f"(exit code {done.returncode})")
            results += json.loads(scratch.read_text())["runs"]
            scratch.unlink()
    write_documents(results, args.out)
    print(contract_line(results, prefix=True) if args.repeats == 1
          else json.dumps({"runs": len(results),
                           "correct": all(r["correct"] for r in results)}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
