"""A fifth architectural style: federated grid sites under failure.

The fault-tolerance shape the robustness PR asks for: a submission
gateway routes pilot jobs to N *sites*, each owning a set of pilot
pools, each pool a fixed number of worker slots.  Unlike the flat
styles, the repair footprint here is **hierarchical**: draining a site
writes the site component *and* every pool beneath it, so one repair
spans a subtree of the model rather than a single component.

Per-site properties:

* ``healthy`` — 1.0 while the site answers heartbeats, 0.0 while it is
  down (fed by the ``healthy`` gauge);
* ``drained`` — 1.0 once a repair has routed the site's backlog away
  and zeroed its pools (model-internal: written only by repairs);
* ``capacity`` — total worker slots, for reporting and routing weight.

Per-pool properties: ``pilots`` (currently provisioned slots) and
``slots`` (designed width, what ``resubmitPilots`` restores).

Two invariants drive two repairs:

* ``siteUp``: ``healthy >= 1 or drained >= 1`` — a dead, undrained site
  is a violation -> ``rescueSite`` drains it (moves its backlog to the
  surviving sites and marks it out of the routing cycle);
* ``rejoin``: ``healthy <= 0 or drained <= 0`` — a recovered site still
  marked drained is a violation -> ``reclaimSite`` resubmits pilots and
  puts it back in rotation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.acme.elements import Component
from repro.acme.family import Family
from repro.acme.system import ArchSystem
from repro.errors import EvaluationError
from repro.repair.context import RepairContext

__all__ = [
    "build_grid_site_family",
    "build_grid_site_model",
    "grid_site_operators",
    "site_pools",
    "GRID_SITE_DSL",
]


def build_grid_site_family() -> Family:
    fam = Family("GridSiteFam")
    fam.component_type("GatewayT").declare_property("sites", "int", 0)
    (
        fam.component_type("SiteT")
        .declare_property("healthy", "float", 1.0)
        .declare_property("drained", "float", 0.0)
        .declare_property("capacity", "int", 0)
    )
    (
        fam.component_type("PilotPoolT")
        .declare_property("pilots", "int", 0)
        .declare_property("slots", "int", 0)
    )
    fam.connector_type("SiteLinkT")
    fam.connector_type("PoolLinkT")
    fam.port_type("SubmitT")
    fam.port_type("AcceptT")
    fam.port_type("DispatchT")
    fam.port_type("PilotT")
    fam.role_type("GatewayRoleT")
    fam.role_type("SiteRoleT")
    fam.role_type("PoolRoleT")
    return fam


def build_grid_site_model(
    name: str,
    sites: Sequence[Tuple[str, int, int]],
    family: Family = None,
) -> ArchSystem:
    """``gateway --link--> site --link--> pool...`` per site.

    ``sites`` is ``(site_name, pools, slots_per_pool)`` triples.  Site
    components carry the runtime site *names* (the ``healthy`` gauges
    target them directly); pools are named ``<site>_pool<i>`` — the
    convention :func:`site_pools` and the drain/resubmit operators use
    to walk one site's subtree.
    """
    fam = family if family is not None else build_grid_site_family()
    system = ArchSystem(name, family=fam.name)
    gateway = system.new_component("gateway", ["GatewayT"])
    fam.initialize(gateway)
    gateway.set_property("sites", len(sites))
    for site_name, pools, slots in sites:
        gateway.add_port(f"submit_{site_name}", {"SubmitT"})
        site = system.new_component(site_name, ["SiteT"])
        fam.initialize(site)
        site.add_port("accept", {"AcceptT"})
        site.set_property("capacity", int(pools) * int(slots))
        link = system.new_connector(f"link_{site_name}", ["SiteLinkT"])
        fam.initialize(link)
        src = link.add_role("gateway", {"GatewayRoleT"})
        snk = link.add_role("site", {"SiteRoleT"})
        system.attach(gateway.port(f"submit_{site_name}"), src)
        system.attach(site.port("accept"), snk)
        for i in range(int(pools)):
            pool_name = f"{site_name}_pool{i}"
            site.add_port(f"dispatch_{i}", {"DispatchT"})
            pool = system.new_component(pool_name, ["PilotPoolT"])
            fam.initialize(pool)
            pool.add_port("pilot", {"PilotT"})
            pool.set_property("pilots", int(slots))
            pool.set_property("slots", int(slots))
            feed = system.new_connector(f"feed_{pool_name}", ["PoolLinkT"])
            fam.initialize(feed)
            p_src = feed.add_role("site", {"SiteRoleT"})
            p_snk = feed.add_role("pool", {"PoolRoleT"})
            system.attach(site.port(f"dispatch_{i}"), p_src)
            system.attach(pool.port("pilot"), p_snk)
    return system


def site_pools(system: ArchSystem, site: str) -> List[Component]:
    """The pool components beneath ``site`` (by the naming convention)."""
    prefix = f"{site}_pool"
    return [
        comp
        for comp in system.components
        if comp.name.startswith(prefix) and comp.declares_type("PilotPoolT")
    ]


def grid_site_operators() -> Dict[str, Callable[..., Any]]:
    """Style operators: drain a dead site, resubmit pilots to a live one.

    Both walk the site's pool subtree, so a committed repair's footprint
    covers the site component *and* its pools — the hierarchical-scope
    behaviour this style exists to exercise.
    """

    def _site(value: Any, op: str) -> Component:
        if not isinstance(value, Component) or not value.declares_type("SiteT"):
            raise EvaluationError(f"{op} must target a SiteT component")
        return value

    def op_drain(ctx: RepairContext, site: Any) -> int:
        comp = _site(site, "drain")
        comp.set_property("drained", 1.0)
        moved = 0
        for pool in site_pools(ctx.system, comp.name):
            moved += int(pool.get_property("pilots"))
            pool.set_property("pilots", 0)
        ctx.intend("drainSite", site=comp.name)
        return moved

    def op_resubmit(ctx: RepairContext, site: Any) -> int:
        comp = _site(site, "resubmit")
        comp.set_property("drained", 0.0)
        restored = 0
        for pool in site_pools(ctx.system, comp.name):
            slots = int(pool.get_property("slots"))
            pool.set_property("pilots", slots)
            restored += slots
        ctx.intend("resubmitPilots", site=comp.name)
        return restored

    return {"drain": op_drain, "resubmit": op_resubmit}


GRID_SITE_DSL = """
// lint: waive FP203 healthy/drained are binary indicators; the statically
// overlapping (0, 1) band is unreachable, so drain/resubmit cannot ping-pong.
invariant s : healthy >= 1 or drained >= 1 ! -> rescueSite(s);
invariant j : healthy <= 0 or drained <= 0 ! -> reclaimSite(j);

// A site stopped answering heartbeats and nobody drained it yet: move
// its backlog to the surviving sites and take it out of rotation.  The
// runtime half of this (drainSite) is exactly the effector the fault
// plane loves to break, so this strategy is the retry/breaker workout.
strategy rescueSite(badSite : SiteT) = {
    if (drainSite(badSite)) {
        commit repair;
    } else {
        abort SiteUnrecoverable;
    }
}

tactic drainSite(site : SiteT) : boolean = {
    if (site.healthy >= 1) {
        return false;
    }
    if (site.drained >= 1) {
        return false;
    }
    site.drain();
    return true;
}

// A drained site is healthy again: resubmit its pilots and put it back
// in the routing cycle.
strategy reclaimSite(backSite : SiteT) = {
    if (resubmitPilots(backSite)) {
        commit repair;
    } else {
        abort SiteNotReady;
    }
}

tactic resubmitPilots(site : SiteT) : boolean = {
    if (site.healthy <= 0) {
        return false;
    }
    if (site.drained <= 0) {
        return false;
    }
    site.resubmit();
    return true;
}
"""
