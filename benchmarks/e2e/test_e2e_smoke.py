"""Smoke tests of the e2e benchmark itself (``pytest benchmarks/e2e``).

Not collected by tier-1 (``testpaths = ["tests"]``).  Everything runs in
``--quick`` mode: N = 50 pools, 6 cycles — never comparable numbers.
"""

from __future__ import annotations

import copy
import importlib
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from e2e import run

CONTRACT = run._bootstrap()

from e2e import agree, plane, trace, workloads  # noqa: E402

WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def quick(name: str, seed: int = 5, traced: bool = False) -> dict:
    return run.run_one(CONTRACT, name, seed, 15.0, traced, quick=True)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_quick_run_emits_exactly_the_declared_metrics(name, traced):
    result = quick(name, traced=traced)
    declared = CONTRACT["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(NAME.fullmatch(metric) for metric in result["metrics"])
    assert result["quick"] and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    line = json.loads(run.contract_line([result], prefix=False))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    if traced:
        evaluated = result["metrics"]["engine.evaluate.calls"]["value"]
        assert (evaluated == 0) == (name == "steady_1k")
        assert result["metrics"]["trace.residual_ratio"]["value"] <= 0.01
        assert result["metrics"]["trace.missing"]["value"] == 0
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", ["storm_1k", "storm_1k_sharded", "react_1k"])
def test_same_seed_repeats_exactly_and_another_seed_keeps_attempted(name):
    first, again = quick(name, traced=True), quick(name, traced=True)
    assert first["digest"] == again["digest"]
    assert first["attempted"] == again["attempted"]
    exact = [m for m, entry in first["metrics"].items() if entry["exact"]]
    assert "repairs.committed" in exact and "sim.step.calls" in exact
    assert first["metrics"]["repairs.committed"]["value"] > 0
    for metric in exact:
        assert first["metrics"][metric]["value"] == again["metrics"][metric]["value"]
    other = quick(name, seed=6, traced=True)
    assert other["attempted"] == first["attempted"] and other["failed"] == 0


def test_another_seed_changes_values_and_cohort_membership():
    a, b = plane.Telemetry(5, 50, 3), plane.Telemetry(6, 50, 3)
    assert not np.array_equal(a.latency_noise, b.latency_noise)
    assert not np.array_equal(a.order, b.order)
    assert sorted(a.order) == sorted(b.order)


def test_storm_and_sharded_storm_do_the_same_repairs():
    assert quick("storm_1k")["digest"] == quick("storm_1k_sharded")["digest"]


def test_an_effector_that_drops_an_intent_fails_operations(monkeypatch):
    class Dropping(plane.RecordingEffector):
        dropped = False

        def _apply(self, intent, *rest):
            if not Dropping.dropped:
                Dropping.dropped = True
                return  # silently: neither applied nor recorded
            super()._apply(intent, *rest)

    monkeypatch.setattr(plane, "RecordingEffector", Dropping)
    result = quick("storm_1k")
    assert Dropping.dropped
    assert result["failed"] > 0 and result["failed_share"] > 0
    assert not result["correct"]


def test_tracing_restores_every_attribute_and_tolerates_a_bogus_row():
    def raw(entry):
        owner = importlib.import_module(entry.module)
        if entry.cls is not None:
            owner = getattr(owner, entry.cls)
        return owner, vars(owner).get(entry.attr)

    bogus = (
        trace.EntryPoint("repro.bus.bus", "EventBus", "no_such_method", "x"),
        trace.EntryPoint("repro.no_such_module", "Gone", "run", "x"),
    )
    before = {entry: raw(entry) for entry in trace.ENTRY_POINTS}
    with trace.tracing(trace.ENTRY_POINTS + bogus) as tracer:
        for entry in trace.ENTRY_POINTS:
            owner, original = before[entry]
            patched = vars(owner)[entry.attr]
            assert patched is not original and callable(patched.__wrapped__)
    assert tracer.missing == [
        "repro.bus.bus.EventBus.no_such_method",
        "repro.no_such_module.Gone.run",
    ]
    for entry in trace.ENTRY_POINTS:
        owner, original = before[entry]
        assert vars(owner).get(entry.attr) is original


def test_agree_flags_worse_noisy_and_inexact_sets(tmp_path, capsys):
    runs = [quick("steady_1k", seed=5) for _ in range(2)]
    for k, result in enumerate(runs):  # fixed values: the test is about agree
        for entry in result["metrics"].values():
            entry["value"] = 100.0 + k
    base = {"benchmark": "e2e", "runs": runs}

    def verdict(document, *flags):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(document))
        return agree.main([str(a), str(b), *flags])

    assert verdict(base, "--same-commit") == 0
    worse = copy.deepcopy(base)
    for result in worse["runs"]:
        result["metrics"]["cycle_ms_fast"]["value"] *= 2
    assert verdict(worse) == 1 and "worse" in capsys.readouterr().out
    better = copy.deepcopy(base)
    for result in better["runs"]:
        result["metrics"]["cycle_ms_fast"]["value"] /= 2
    assert verdict(better) == 0 and verdict(better, "--same-commit") == 1
    noisy = copy.deepcopy(base)
    noisy["runs"][0]["metrics"]["cycle_ms_fast"]["value"] = 50.0
    noisy["runs"][1]["metrics"]["cycle_ms_fast"]["value"] = 150.0
    capsys.readouterr()
    assert verdict(noisy) == 1 and "unresolved" in capsys.readouterr().out
    inexact = copy.deepcopy(base)
    inexact["runs"][0]["digest"] = "different"
    assert verdict(inexact) == 1


def test_without_the_program_the_runner_exits_non_zero(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for source in run.HERE.glob("*.py"):
        shutil.copy(source, bare)
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady_1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
