"""X5 — repair throughput: serial engine vs disjoint-footprint concurrency.

The paper's architecture manager serializes repairs — one in flight,
then a settle window (§5.3, §7) — so k simultaneous violations in
unrelated parts of the model quiesce in O(k) settle windows even though
their repairs could not possibly interact.  The disjoint scheduler
(``concurrency="disjoint"``) admits every violation whose invariant read
scope and repair write set overlap nothing in flight, with per-footprint
settle timers instead of one global cooldown.

Two measurements, both in *simulated* time (deterministic, so they gate
exactly):

* **engine** — a synthetic model with 8 simultaneously violated
  scope-local invariants and a fixed-cost translator; time-to-quiesce is
  when every scope is healthy and no repair remains in flight;
* **scenario** — the ``multi_tenant`` scenario end to end at 8 tenants,
  every tenant surged in the same window; time-to-quiesce is
  :meth:`MultiTenantResult.time_to_all_repaired`.

Output: a rendered table artifact plus machine-readable
``out/BENCH_concurrent_repairs.json``.  The acceptance gate asserts the
disjoint scheduler quiesces >= 3x faster on both measurements.
``BENCH_FAST=1`` trims the scenario horizon; the engine measurement is
already cheap and unchanged.
"""

import json
import os
import pathlib

from repro import api
from repro.acme.system import ArchSystem
from repro.constraints.invariants import ConstraintChecker
from repro.repair import ArchitectureManager, FirstSuccessStrategy, PythonTactic
from repro.sim import Simulator
from repro.util.tables import render_table

FAST = os.environ.get("BENCH_FAST", "") == "1"
VIOLATIONS = 8           # the acceptance-criterion count
GATE_SPEEDUP = 3.0
TRANSLATE_COST = 10.0    # s per repair's runtime execution
SETTLE_TIME = 20.0
HORIZON = 600.0          # engine measurement window

SCENARIO_TENANTS = 8
SCENARIO_HORIZON = 900.0 if FAST else 1800.0

OUT_DIR = pathlib.Path(__file__).parent / "out"


class FixedCostTranslator:
    """Charges a fixed runtime-execution delay per repair."""

    def __init__(self, sim, delay):
        self.sim = sim
        self.delay = delay

    def execute(self, intents, on_done=None):
        self.sim.schedule(self.delay, on_done or (lambda: None))


def build_engine(concurrency: str):
    """8 scope-local violations, one strategy that heals its own scope."""
    system = ArchSystem("Synthetic")
    for i in range(VIOLATIONS):
        comp = system.new_component(f"n{i}", ["NodeT"])
        comp.set_property("latency", 5.0)
    checker = ConstraintChecker(bindings={"maxLatency": 2.0})
    checker.add_source(
        "r", "latency <= maxLatency", scope_type="NodeT", repair="fix"
    )
    sim = Simulator()

    def heal(ctx):
        target = ctx.bindings["__strategy_args__"][0]
        target.set_property("latency", 1.0)
        ctx.intend("heal", target=target.name)
        return True

    manager = ArchitectureManager(
        sim,
        system,
        checker,
        translator=FixedCostTranslator(sim, TRANSLATE_COST),
        settle_time=SETTLE_TIME,
        concurrency=concurrency,
        max_concurrent_repairs=VIOLATIONS,
    )
    manager.register_strategy(
        FirstSuccessStrategy("fix", [PythonTactic("heal", heal)])
    )
    return sim, system, checker, manager


def run_engine_variant(concurrency: str) -> float:
    """Simulated seconds until all 8 scopes are healthy and idle."""
    sim, system, checker, manager = build_engine(concurrency)
    quiesce = {"at": None}

    def tick():
        manager.evaluate()
        if quiesce["at"] is None and not manager.busy:
            if not checker.violations(system):
                quiesce["at"] = sim.now
                return
        sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run(until=HORIZON)
    assert len(manager.history) == VIOLATIONS
    assert all(r.committed for r in manager.history)
    return quiesce["at"] if quiesce["at"] is not None else HORIZON


def run_scenario_variant(concurrency: str):
    """The multi_tenant scenario at 8 tenants, every tenant surged."""
    config = api.RunConfig.adapted(
        "multi_tenant", horizon=SCENARIO_HORIZON
    ).but(tenants=SCENARIO_TENANTS, concurrency=concurrency)
    result = api.run(config)
    return result


def test_x5_concurrent_repairs(artifact):
    engine = {
        mode: run_engine_variant(mode) for mode in ("serial", "disjoint")
    }
    engine_speedup = engine["serial"] / engine["disjoint"]

    scenario_results = {
        mode: run_scenario_variant(mode) for mode in ("serial", "disjoint")
    }
    scenario = {
        mode: result.time_to_all_repaired()
        for mode, result in scenario_results.items()
    }
    scenario_speedup = scenario["serial"] / scenario["disjoint"]
    peak_inflight = scenario_results["disjoint"].peak_inflight
    conflicts = scenario_results["disjoint"].conflicts

    rows = [
        [
            "engine (8 disjoint violations)",
            round(engine["serial"], 1),
            round(engine["disjoint"], 1),
            round(engine_speedup, 1),
        ],
        [
            f"multi_tenant ({SCENARIO_TENANTS} tenants surged)",
            round(scenario["serial"], 1),
            round(scenario["disjoint"], 1),
            round(scenario_speedup, 1),
        ],
    ]
    text = render_table(
        ["measurement", "serial quiesce (s)", "disjoint quiesce (s)",
         "speedup (x)"],
        rows,
        title=(
            "X5: time-to-quiesce, serial vs disjoint-footprint scheduling"
            f"{' [fast mode]' if FAST else ''}"
        ),
    )
    print(text)
    print(
        f"disjoint run: peak {peak_inflight} repairs in flight, "
        f"{conflicts} footprint conflicts"
    )
    artifact("x5_concurrent_repairs", text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_concurrent_repairs.json").write_text(
        json.dumps(
            {
                "bench": "x5_concurrent_repairs",
                "fast": FAST,
                "violations": VIOLATIONS,
                "engine": {
                    "serial_quiesce_s": engine["serial"],
                    "disjoint_quiesce_s": engine["disjoint"],
                    "speedup": engine_speedup,
                },
                "scenario": {
                    "tenants": SCENARIO_TENANTS,
                    "horizon_s": SCENARIO_HORIZON,
                    "serial_quiesce_s": scenario["serial"],
                    "disjoint_quiesce_s": scenario["disjoint"],
                    "speedup": scenario_speedup,
                    "peak_inflight": peak_inflight,
                    "conflicts": conflicts,
                },
            },
            indent=2,
        )
        + "\n"
    )

    # The disjoint scheduler must actually run repairs concurrently...
    assert peak_inflight >= 3, f"peak inflight only {peak_inflight}"
    # ...and quiesce >= 3x faster at 8 simultaneous disjoint violations,
    # on the synthetic engine and through the full scenario alike.
    assert engine_speedup >= GATE_SPEEDUP, (
        f"engine speedup only {engine_speedup:.1f}x at {VIOLATIONS} violations"
    )
    assert scenario_speedup >= GATE_SPEEDUP, (
        f"scenario speedup only {scenario_speedup:.1f}x at "
        f"{SCENARIO_TENANTS} tenants"
    )
