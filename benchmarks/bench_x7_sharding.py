"""X7 — sharded control plane: quiesce throughput vs shard count.

The sharded control plane (PR 9) splits the model, the buses, and the
repair loop into independent per-shard slices so shard-local repairs
never serialize against each other.  At a **fixed per-shard load** the
time to quiesce should therefore stay flat as shards are added — i.e.
repair throughput (repairs committed per simulated second of quiesce
time) should grow near-linearly with the shard count.

Measurement (simulated time, deterministic, gates exactly): ``S`` shards
of ``K`` simultaneously violated scope-local invariants each, one serial
engine per shard under a :class:`ShardCoordinator`, fixed-cost
translator; time-to-quiesce is when every shard is healthy and idle.

Output: a rendered table artifact plus machine-readable
``out/BENCH_sharding.json``.  The acceptance gate asserts >= 3x
throughput at 4 shards vs 1 shard (near-linear trend reported).
``BENCH_FAST=1`` trims the sweep to [1, 2, 4] shards.
"""

import json
import os
import pathlib

from repro.acme.sharding import ShardedArchSystem
from repro.acme.system import ArchSystem
from repro.constraints.invariants import ConstraintChecker
from repro.repair import (
    ArchitectureManager,
    FirstSuccessStrategy,
    PythonTactic,
    ShardCoordinator,
)
from repro.runtime.sharding import resolve_shard_key
from repro.sim import Simulator
from repro.util.tables import render_table

FAST = os.environ.get("BENCH_FAST", "") == "1"
PER_SHARD = 8            # violated invariants per shard (fixed load)
SWEEP = (1, 2, 4) if FAST else (1, 2, 4, 8)
GATE_RATIO = 3.0         # throughput at 4 shards vs 1 shard
TRANSLATE_COST = 10.0    # s per repair's runtime execution
SETTLE_TIME = 20.0
HORIZON = 600.0

OUT_DIR = pathlib.Path(__file__).parent / "out"


class FixedCostTranslator:
    """Charges a fixed runtime-execution delay per repair."""

    def __init__(self, sim, delay):
        self.sim = sim
        self.delay = delay

    def execute(self, intents, on_done=None):
        self.sim.schedule(self.delay, on_done or (lambda: None))


def heal(ctx):
    target = ctx.bindings["__strategy_args__"][0]
    target.set_property("latency", 1.0)
    ctx.intend("heal", target=target.name)
    return True


def build_rig(shards: int):
    """``shards * PER_SHARD`` violated scopes, one serial engine per shard."""
    system = ArchSystem("Synthetic")
    for i in range(shards * PER_SHARD):
        comp = system.new_component(f"n{i}", ["NodeT"])
        comp.set_property("latency", 5.0)
    sim = Simulator()
    model = ShardedArchSystem.partition(
        system, shards, resolve_shard_key("numeric_suffix")
    )
    managers, checkers = [], []
    for k in range(shards):
        checker = ConstraintChecker(bindings={"maxLatency": 2.0})
        checker.add_source(
            "r", "latency <= maxLatency", scope_type="NodeT", repair="fix"
        )
        manager = ArchitectureManager(
            sim,
            model.shard(k),
            checker,
            translator=FixedCostTranslator(sim, TRANSLATE_COST),
            settle_time=SETTLE_TIME,
        )
        manager.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("heal", heal)])
        )
        managers.append(manager)
        checkers.append(checker)
    coordinator = ShardCoordinator(managers)
    return sim, model, checkers, coordinator


def run_sweep_point(shards: int):
    """Simulated seconds until every shard is healthy and idle."""
    sim, model, checkers, coordinator = build_rig(shards)
    quiesce = {"at": None}

    def healthy():
        return all(
            not checker.violations(model.shard(k))
            for k, checker in enumerate(checkers)
        )

    def tick():
        coordinator.evaluate()
        if quiesce["at"] is None and not coordinator.busy and healthy():
            quiesce["at"] = sim.now
            return
        sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run(until=HORIZON)
    history = coordinator.history
    assert len(history) == shards * PER_SHARD
    assert all(record.committed for record in history)
    quiesce_s = quiesce["at"] if quiesce["at"] is not None else HORIZON
    return {
        "shards": shards,
        "repairs": len(history),
        "quiesce_s": quiesce_s,
        "throughput": len(history) / quiesce_s,
        "peak_inflight": coordinator.peak_inflight,
    }


def test_x7_sharding(artifact):
    sweep = [run_sweep_point(shards) for shards in SWEEP]
    by_shards = {point["shards"]: point for point in sweep}
    ratio_4v1 = by_shards[4]["throughput"] / by_shards[1]["throughput"]
    # 1.0 = perfectly linear scaling at fixed per-shard load
    linearity = ratio_4v1 / 4.0

    rows = [
        [
            point["shards"],
            point["repairs"],
            round(point["quiesce_s"], 1),
            round(point["throughput"], 3),
            point["peak_inflight"],
        ]
        for point in sweep
    ]
    text = render_table(
        ["shards", "repairs", "quiesce (s)", "throughput (repairs/s)",
         "peak inflight"],
        rows,
        title=(
            f"X7: quiesce throughput vs shard count "
            f"({PER_SHARD} violations/shard)"
            f"{' [fast mode]' if FAST else ''}"
        ),
    )
    print(text)
    print(f"4v1 throughput ratio {ratio_4v1:.2f}x (linearity {linearity:.2f})")
    artifact("x7_sharding", text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_sharding.json").write_text(
        json.dumps(
            {
                "bench": "x7_sharding",
                "fast": FAST,
                "per_shard": PER_SHARD,
                "sweep": sweep,
                "scaling": {
                    "throughput_1": by_shards[1]["throughput"],
                    "throughput_4": by_shards[4]["throughput"],
                    "ratio_4v1": ratio_4v1,
                    "linearity": linearity,
                },
            },
            indent=2,
        )
        + "\n"
    )

    # Shard-local loops must actually run side by side...
    assert by_shards[4]["peak_inflight"] >= 4, (
        f"peak inflight only {by_shards[4]['peak_inflight']} at 4 shards"
    )
    # ...and throughput must scale near-linearly at fixed per-shard load.
    assert ratio_4v1 >= GATE_RATIO, (
        f"throughput only {ratio_4v1:.2f}x at 4 shards vs 1"
    )
