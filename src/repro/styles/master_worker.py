"""A third architectural style: master/worker task farms.

The grid workload the paper's framework was built for (§2's "typical
grid applications") is the task farm: a master dispatching independent
work units to a pool of interchangeable workers.  The style models the
master and its worker pool as two components joined by a task channel;
all adaptation-relevant state lives on the pool component:

* ``backlog`` — tasks queued at the master;
* ``size`` / ``minSize`` — current and designed pool width;
* ``utilization`` — busy workers over pool size;
* ``oldestAge`` — age of the longest-running assignment (the straggler
  signal: on a healthy farm it stays near the task service time).

Three invariants drive three repairs, mirroring the paper's repertoire
transposed to the farm:

* ``queueBound`` -> ``growPool`` — the farm's ``addServer``;
* ``stragglerBound`` -> ``rescueStraggler`` — re-dispatch the stuck task
  (the farm's ``move``: same work, better placement);
* ``idlePool`` -> ``shrinkPool`` — the §3.2-style underutilization
  scale-down, guarded so it never fires mid-burst.

:data:`MASTER_WORKER_DSL` is :data:`POOL_SIZING_DSL` (grow by the
``growStep`` binding, shrink) plus the straggler repair.  The live demo
(:mod:`repro.realtime.demo`) shares :data:`POOL_SIZING_DSL`, with
bindings of its own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.acme.elements import Component
from repro.acme.family import Family
from repro.acme.system import ArchSystem
from repro.errors import EvaluationError, TacticFailure
from repro.repair.context import RepairContext

__all__ = [
    "build_master_worker_family",
    "build_master_worker_model",
    "master_worker_operators",
    "MASTER_WORKER_DSL",
    "POOL_SIZING_DSL",
]


def build_master_worker_family() -> Family:
    fam = Family("MasterWorkerFam")
    fam.component_type("MasterT").declare_property("pending", "float", 0.0)
    (
        fam.component_type("WorkerPoolT")
        .declare_property("backlog", "float", 0.0)
        .declare_property("size", "int", 1)
        .declare_property("minSize", "int", 1)
        .declare_property("utilization", "float", 1.0)
        .declare_property("oldestAge", "float", 0.0)
    )
    fam.connector_type("TaskChannelT").declare_property("inFlight", "float", 0.0)
    fam.port_type("DispatchT")
    fam.port_type("CollectT")
    fam.role_type("MasterRoleT")
    fam.role_type("PoolRoleT")
    return fam


def build_master_worker_model(
    name: str,
    pool_size: int,
    min_size: int,
    family: Family = None,
) -> ArchSystem:
    """``master --tasks--> pool`` with the pool's width properties set."""
    fam = family if family is not None else build_master_worker_family()
    system = ArchSystem(name, family=fam.name)
    master = system.new_component("master", ["MasterT"])
    fam.initialize(master)
    master.add_port("dispatch", {"DispatchT"})
    pool = system.new_component("pool", ["WorkerPoolT"])
    fam.initialize(pool)
    pool.add_port("collect", {"CollectT"})
    pool.set_property("size", int(pool_size))
    pool.set_property("minSize", int(min_size))
    channel = system.new_connector("tasks", ["TaskChannelT"])
    fam.initialize(channel)
    src = channel.add_role("master", {"MasterRoleT"})
    snk = channel.add_role("pool", {"PoolRoleT"})
    system.attach(master.port("dispatch"), src)
    system.attach(pool.port("collect"), snk)
    return system


def master_worker_operators(
    max_workers: int = 16,
) -> Dict[str, Callable[..., Any]]:
    """Style operators: ``grow``/``shrink`` the pool, ``redispatch`` work."""

    def _pool(value: Any, op: str) -> Component:
        if not isinstance(value, Component) or not value.declares_type("WorkerPoolT"):
            raise EvaluationError(f"{op} must target a WorkerPoolT component")
        return value

    def op_grow(ctx: RepairContext, pool: Any, amount: Any = 1) -> int:
        comp = _pool(pool, "grow")
        new_size = int(comp.get_property("size")) + int(amount)
        if new_size > max_workers:
            raise TacticFailure(f"grow: worker budget {max_workers} exhausted")
        comp.set_property("size", new_size)
        ctx.intend("addWorkers", pool=comp.name, size=new_size)
        return new_size

    def op_shrink(ctx: RepairContext, pool: Any, amount: Any = 1) -> int:
        comp = _pool(pool, "shrink")
        new_size = int(comp.get_property("size")) - int(amount)
        if new_size < 1:
            raise TacticFailure("shrink: a pool needs at least one worker")
        comp.set_property("size", new_size)
        ctx.intend("removeWorkers", pool=comp.name, size=new_size)
        return new_size

    def op_redispatch(ctx: RepairContext, pool: Any) -> bool:
        comp = _pool(pool, "redispatch")
        # the intended effect: the stuck task restarts now, so the model's
        # straggler signal resets (the next gauge report re-measures it)
        comp.set_property("oldestAge", 0.0)
        ctx.intend("redispatchOldest", pool=comp.name)
        return True

    return {"grow": op_grow, "shrink": op_shrink, "redispatch": op_redispatch}


POOL_SIZING_DSL = """
invariant q : backlog <= maxBacklog ! -> growPool(q);
invariant u : size <= minSize or utilization >= minUtilization
    ! -> shrinkPool(u);

strategy growPool(busyPool : WorkerPoolT) = {
    if (addWorker(busyPool)) {
        commit repair;
    } else {
        abort NoWorkersLeft;
    }
}

tactic addWorker(pool : WorkerPoolT) : boolean = {
    if (pool.backlog <= maxBacklog) {
        return false;
    }
    pool.grow(growStep);
    return true;
}

// The §3.2-style scale-down: release one worker at a time while the
// pool idles under minUtilization above its designed minimum size; the
// backlog guard keeps it off while work is still queued.
strategy shrinkPool(idlePool : WorkerPoolT) = {
    if (removeWorker(idlePool)) {
        commit repair;
    } else {
        abort ModelError;
    }
}

tactic removeWorker(pool : WorkerPoolT) : boolean = {
    if (pool.size <= pool.minSize) {
        return false;
    }
    if (pool.utilization >= minUtilization) {
        return false;
    }
    if (pool.backlog >= lowWater) {
        return false;
    }
    pool.shrink(1);
    return true;
}
"""

MASTER_WORKER_DSL = POOL_SIZING_DSL + """
invariant s : oldestAge <= maxTaskAge ! -> rescueStraggler(s);

// The farm's analogue of the paper's `move`: the work unit, not the
// topology, is what relocates.  Guarded on the model's straggler signal
// so a just-rescued pool does not re-fire before fresh gauge reports.
strategy rescueStraggler(stuckPool : WorkerPoolT) = {
    if (redispatchOldest(stuckPool)) {
        commit repair;
    } else {
        abort ModelError;
    }
}

tactic redispatchOldest(pool : WorkerPoolT) : boolean = {
    if (pool.oldestAge <= maxTaskAge) {
        return false;
    }
    pool.redispatch();
    return true;
}
"""
