"""A fourth architectural style: multi-tenant worker farms.

The grid-as-a-service shape the ROADMAP asks for: one gateway fans work
out to N tenants, each owning a private worker pool.  Every
adaptation-relevant property lives on the tenant's pool component, so
per-tenant invariants are **scope-local** and their repairs write only
that tenant's component — exactly the disjoint-footprint situation the
concurrent repair engine (``concurrency="disjoint"``) exploits: when a
surge violates several tenants in the same window, their repairs can all
be in flight at once instead of queueing behind one global settle timer.

Per-pool properties:

* ``latency`` — the tenant's estimated queueing delay (backlog x service
  time / pool width), the per-tenant fairness signal;
* ``size`` / ``minSize`` — current and designed pool width;
* ``utilization`` — busy workers over pool width.

Two invariants drive two repairs:

* ``fairLatency`` -> ``boostTenant`` — grow the violated tenant's pool
  by ``growStep`` workers (within the per-tenant budget);
* ``idlePool`` -> ``relaxTenant`` — release one worker at a time once a
  tenant idles below ``minUtilization`` above its designed minimum.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence

from repro.acme.elements import Component
from repro.acme.family import Family
from repro.acme.system import ArchSystem
from repro.errors import EvaluationError, TacticFailure
from repro.repair.context import RepairContext

__all__ = [
    "build_multi_tenant_family",
    "build_multi_tenant_model",
    "multi_tenant_operators",
    "MULTI_TENANT_DSL",
]


def build_multi_tenant_family() -> Family:
    fam = Family("MultiTenantFam")
    fam.component_type("GatewayT").declare_property("tenants", "int", 0)
    (
        fam.component_type("TenantPoolT")
        .declare_property("latency", "float", 0.0)
        .declare_property("size", "int", 1)
        .declare_property("minSize", "int", 1)
        .declare_property("utilization", "float", 1.0)
    )
    fam.connector_type("TenantRouteT").declare_property("inFlight", "float", 0.0)
    fam.port_type("FanOutT")
    fam.port_type("IngestT")
    fam.role_type("GatewayRoleT")
    fam.role_type("TenantRoleT")
    return fam


def build_multi_tenant_model(
    name: str,
    tenants: Sequence[str],
    pool_size: int,
    min_size: int,
    family: Family = None,
) -> ArchSystem:
    """``gateway --route--> pool`` per tenant, pool widths initialized.

    Each tenant's pool component carries that tenant's *name* (gauge
    subjects target it directly), keeping one component per tenant —
    the unit of repair-footprint disjointness.
    """
    fam = family if family is not None else build_multi_tenant_family()
    system = ArchSystem(name, family=fam.name)
    gateway = system.new_component("gateway", ["GatewayT"])
    fam.initialize(gateway)
    gateway.set_property("tenants", len(tenants))
    for tenant in tenants:
        gateway.add_port(f"out_{tenant}", {"FanOutT"})
        pool = system.new_component(tenant, ["TenantPoolT"])
        fam.initialize(pool)
        pool.add_port("ingest", {"IngestT"})
        pool.set_property("size", int(pool_size))
        pool.set_property("minSize", int(min_size))
        route = system.new_connector(f"route_{tenant}", ["TenantRouteT"])
        fam.initialize(route)
        src = route.add_role("gateway", {"GatewayRoleT"})
        snk = route.add_role("tenant", {"TenantRoleT"})
        system.attach(gateway.port(f"out_{tenant}"), src)
        system.attach(pool.port("ingest"), snk)
    return system


def multi_tenant_operators(
    max_workers: int = 16,
) -> Dict[str, Callable[..., Any]]:
    """Style operators: ``grow``/``shrink`` one tenant's pool."""

    def _pool(value: Any, op: str) -> Component:
        if not isinstance(value, Component) or not value.declares_type("TenantPoolT"):
            raise EvaluationError(f"{op} must target a TenantPoolT component")
        return value

    def op_grow(ctx: RepairContext, pool: Any, amount: Any = 1) -> int:
        comp = _pool(pool, "grow")
        new_size = min(int(comp.get_property("size")) + int(amount), max_workers)
        if new_size <= int(comp.get_property("size")):
            raise TacticFailure(f"grow: tenant budget {max_workers} exhausted")
        comp.set_property("size", new_size)
        ctx.intend("resizeTenant", tenant=comp.name, size=new_size, grew=True)
        return new_size

    def op_shrink(ctx: RepairContext, pool: Any, amount: Any = 1) -> int:
        comp = _pool(pool, "shrink")
        new_size = int(comp.get_property("size")) - int(amount)
        if new_size < 1:
            raise TacticFailure("shrink: a pool needs at least one worker")
        comp.set_property("size", new_size)
        ctx.intend("resizeTenant", tenant=comp.name, size=new_size, grew=False)
        return new_size

    return {"grow": op_grow, "shrink": op_shrink}


MULTI_TENANT_DSL = """
// lint: waive FP202 grow and shrink always target distinct pool instances
// (one invariant violation binds one tenant), so runtime footprints stay
// disjoint even though both strategies write TenantPoolT statically.
invariant f : latency <= maxLatency ! -> boostTenant(f);
invariant i : size <= minSize or utilization >= minUtilization
    ! -> relaxTenant(i);

// The per-tenant latency repair: widen the hot tenant's pool by
// growStep at once (one provisioning round instead of several), within
// the per-tenant worker budget.
strategy boostTenant(hotPool : TenantPoolT) = {
    if (addCapacity(hotPool)) {
        commit repair;
    } else {
        abort NoCapacityLeft;
    }
}

tactic addCapacity(pool : TenantPoolT) : boolean = {
    if (pool.latency <= maxLatency) {
        return false;
    }
    pool.grow(growStep);
    return true;
}

// The idle scale-down: one worker per settle period while the tenant
// idles under minUtilization above its designed minimum; the latency
// guard keeps it off a tenant that still queues work.
strategy relaxTenant(coldPool : TenantPoolT) = {
    if (removeCapacity(coldPool)) {
        commit repair;
    } else {
        abort ModelError;
    }
}

tactic removeCapacity(pool : TenantPoolT) : boolean = {
    if (pool.size <= pool.minSize) {
        return false;
    }
    if (pool.utilization >= minUtilization) {
        return false;
    }
    if (pool.latency >= lowWater) {
        return false;
    }
    pool.shrink(1);
    return true;
}
"""
