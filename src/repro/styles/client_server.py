"""The paper's client/server architectural style.

Provides:

* :func:`build_client_server_family` — ClientT, ServerT, ServerGroupT,
  LinkT, RequestT/ServeT ports, ClientRoleT/GroupRoleT roles;
* :func:`build_client_server_model` — an :class:`ArchSystem` mirroring a
  runtime configuration (Figure 2's shape: clients attached through LinkT
  connectors to server groups whose *representations* contain the
  replicated servers);
* :data:`FIGURE5_DSL` — the paper's Figure 5 repair strategy, near
  verbatim, in the repair DSL;
* :data:`UNDERUTILIZATION_DSL` — the paper's third repair ("reduces the
  number of servers in a server group if the server group is
  underutilized", §3.2);
* :func:`style_operators` — the adaptation operators of §3.3 bound to a
  model + runtime view;
* :func:`client_link` / :func:`client_role` — the resolvers the gauge
  property map fans latency and bandwidth reports out through.

Model/runtime naming convention: model components carry the *same names*
as their runtime counterparts (``C3``, ``SG1``, ``S4``), which is what lets
the translator map committed intents onto Table 1 calls directly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.acme.elements import Component, Connector, Role
from repro.acme.family import Family
from repro.acme.system import ArchSystem
from repro.errors import EvaluationError, TacticFailure
from repro.repair.context import RepairContext

__all__ = [
    "build_client_server_family",
    "build_client_server_model",
    "style_operators",
    "FIGURE5_DSL",
    "UNDERUTILIZATION_DSL",
    "client_link",
    "client_role",
    "link_name",
]


# ---------------------------------------------------------------------------
# Family
# ---------------------------------------------------------------------------


def build_client_server_family() -> Family:
    """The ClientServerFam style family."""
    fam = Family("ClientServerFam")
    fam.component_type("ClientT").declare_property("averageLatency", "float", 0.0)
    fam.component_type("ServerT").declare_property("active", "boolean", True)
    (
        fam.component_type("ServerGroupT")
        .declare_property("load", "float", 0.0)
        .declare_property("replication", "int", 0)
        .declare_property("utilization", "float", 0.0)
    )
    fam.connector_type("LinkT").declare_property("bandwidth", "float", 0.0)
    fam.port_type("RequestT")
    fam.port_type("ServeT")
    (
        fam.role_type("ClientRoleT")
        .declare_property("averageLatency", "float", 0.0)
        .declare_property("bandwidth", "float", 1e9)
    )
    fam.role_type("GroupRoleT")
    return fam


def link_name(client: str) -> str:
    """Connector name for a client's link (one LinkT per client)."""
    return f"link_{client}"


def client_link(system: ArchSystem, client: str) -> Connector:
    """Resolver: a client's link connector (UnknownElementError if absent)."""
    return system.connector(link_name(client))


def client_role(system: ArchSystem, client: str) -> Role:
    """Resolver: the client role of a client's link, where Figure 5's
    ``badRole`` reads latency and bandwidth."""
    return system.connector(link_name(client)).role("client")


# ---------------------------------------------------------------------------
# Model builder
# ---------------------------------------------------------------------------


def build_client_server_model(
    name: str,
    assignments: Mapping[str, str],
    groups: Mapping[str, Iterable[str]],
    family: Optional[Family] = None,
) -> ArchSystem:
    """Build the architectural model for a runtime configuration.

    ``assignments`` maps client name -> group name; ``groups`` maps group
    name -> active server names.  Spare servers are *not* modelled — they
    enter the model when ``addServer`` recruits them (the architecture
    reflects the running system, not the machine pool).
    """
    fam = family if family is not None else build_client_server_family()
    system = ArchSystem(name, family=fam.name)

    for group_name, servers in sorted(groups.items()):
        grp = system.new_component(group_name, ["ServerGroupT"])
        fam.initialize(grp)
        grp.add_port("serve", {"ServeT"})
        rep = ArchSystem(f"{group_name}_rep", family=fam.name)
        grp.representation = rep
        for server_name in sorted(servers):
            _add_rep_server(rep, fam, server_name, group_name, added_at=0.0)
        grp.set_property("replication", len(rep.components))

    for client_name, group_name in sorted(assignments.items()):
        if not system.has_component(group_name):
            raise EvaluationError(
                f"client {client_name} assigned to unknown group {group_name}"
            )
        cli = system.new_component(client_name, ["ClientT"])
        fam.initialize(cli)
        cli.add_port("req", {"RequestT"})
        link = system.new_connector(link_name(client_name), ["LinkT"])
        fam.initialize(link)
        client_role = link.add_role("client", {"ClientRoleT"})
        fam.initialize(client_role)
        group_role = link.add_role("group", {"GroupRoleT"})
        fam.initialize(group_role)
        system.attach(cli.port("req"), client_role)
        system.attach(system.component(group_name).port("serve"), group_role)

    return system


def _add_rep_server(
    rep: ArchSystem, fam: Family, server_name: str, group_name: str, added_at: float
) -> Component:
    srv = rep.new_component(server_name, ["ServerT"])
    fam.initialize(srv)
    srv.declare_property("group", group_name, "string")
    srv.declare_property("addedAt", float(added_at), "float")
    return srv


# ---------------------------------------------------------------------------
# Model-level helpers shared by operators
# ---------------------------------------------------------------------------


def client_group(system: ArchSystem, client: Component) -> Component:
    """The server group a client is currently attached to (via its link)."""
    for conn in system.connectors_of(client):
        for comp in system.components_on(conn):
            if comp.declares_type("ServerGroupT"):
                return comp
    raise EvaluationError(f"client {client.name} is not attached to any group")


def _violating_client(ctx: RepairContext) -> Optional[Component]:
    """Resolve the client whose constraint violation started this repair."""
    args = ctx.bindings.get("__strategy_args__", ())
    for element in args:
        if isinstance(element, Component) and element.declares_type("ClientT"):
            return element
        if isinstance(element, Role):
            port = ctx.system.attached_port(element)
            if port is not None and port.component.declares_type("ClientT"):
                return port.component
    return None


# ---------------------------------------------------------------------------
# Style operators (§3.3)
# ---------------------------------------------------------------------------


def style_operators(now_fn: Callable[[], float]) -> Dict[str, Callable[..., Any]]:
    """Build the operator table injected into repair contexts.

    ``now_fn`` supplies the current simulation time (for ``addedAt``
    bookkeeping on recruited servers).
    """

    def _require_group(value: Any, op: str) -> Component:
        if not isinstance(value, Component) or not value.declares_type("ServerGroupT"):
            raise EvaluationError(f"{op} must target a ServerGroupT component")
        return value

    def _require_client(value: Any, op: str) -> Component:
        if not isinstance(value, Component) or not value.declares_type("ClientT"):
            raise EvaluationError(f"{op} must target a ClientT component")
        return value

    def op_add_server(ctx: RepairContext, group: Any) -> str:
        """addServer(): recruit a spare into ``group`` (model + intent).

        Fails the enclosing tactic when no spare server has adequate
        bandwidth to the violating client.
        """
        grp = _require_group(group, "addServer")
        client = _violating_client(ctx)
        bw_thresh = float(ctx.bindings.get("minBandwidth", 0.0))
        if ctx.runtime is None:
            raise EvaluationError("addServer requires a runtime view")
        client_name = (
            client.name if client is not None else _first_client_of(ctx.system, grp)
        )
        server = ctx.runtime.find_server(client_name, bw_thresh)
        if server is None:
            raise TacticFailure(
                f"addServer: no spare server with {bw_thresh:.0f} bps to {client_name}"
            )
        rep = grp.representation
        if rep is None:
            rep = ArchSystem(f"{grp.name}_rep", family=ctx.system.family)
            grp.representation = rep
        if rep.has_component(server):
            raise TacticFailure(f"addServer: {server} already in {grp.name}")
        fam = build_client_server_family()
        _add_rep_server(rep, fam, server, grp.name, added_at=now_fn())
        if ctx.transaction is not None:
            ctx.transaction.record(
                f"recruit {server} into {grp.name}",
                lambda: rep._silent_remove_component(server),
            )
        grp.set_property("replication", int(grp.get_property("replication")) + 1)
        ctx.intend(
            "addServer",
            client=client_name,
            group=grp.name,
            server=server,
            bw_thresh=bw_thresh,
        )
        return server

    def op_move(ctx: RepairContext, client: Any, new_group: Any) -> bool:
        """move(to): re-attach the client's link to a different group."""
        cli = _require_client(client, "move")
        grp = _require_group(new_group, "move")
        old = client_group(ctx.system, cli)
        if old is grp:
            raise TacticFailure(f"move: {cli.name} is already on {grp.name}")
        link = ctx.system.connector(link_name(cli.name))
        group_role = link.role("group")
        ctx.system.detach(old.port("serve"), group_role)
        ctx.system.attach(grp.port("serve"), group_role)
        ctx.intend("moveClient", client=cli.name, frm=old.name, to=grp.name)
        return True

    def op_remove_server(ctx: RepairContext, group: Any) -> str:
        """removeServer(): drop the most recently added replica."""
        grp = _require_group(group, "removeServer")
        rep = grp.representation
        if rep is None or not rep.components:
            raise TacticFailure(f"removeServer: {grp.name} has no replicas")
        victim = max(
            rep.components,
            key=lambda s: (s.get_property("addedAt", 0.0), s.name),
        )
        removed = rep.component(victim.name)
        rep._silent_remove_component(victim.name)
        if ctx.transaction is not None:
            ctx.transaction.record(
                f"unremove {victim.name} from {grp.name}",
                lambda: rep.add_component(removed),
            )
        grp.set_property("replication", int(grp.get_property("replication")) - 1)
        ctx.intend("removeServer", server=victim.name, group=grp.name)
        return victim.name

    def op_find_good_sgroup(ctx: RepairContext, client: Any, bw: Any) -> Any:
        """findGoodSGroup(cl, bw): best-bandwidth alternative group or nil."""
        cli = _require_client(client, "findGoodSGroup")
        if not isinstance(bw, (int, float)) or isinstance(bw, bool):
            raise EvaluationError("findGoodSGroup threshold must be a number")
        if ctx.runtime is None:
            raise EvaluationError("findGoodSGroup requires a runtime view")
        current = client_group(ctx.system, cli)
        best: Optional[Tuple[float, str, Component]] = None
        for grp in ctx.system.components_of_type("ServerGroupT"):
            if grp is current:
                continue
            if int(grp.get_property("replication", 0)) < 1:
                continue
            bandwidth = ctx.runtime.bandwidth_between(cli.name, grp.name)
            if bandwidth < float(bw):
                continue
            key = (-bandwidth, grp.name)
            if best is None or key < (best[0], best[1]):
                best = (-bandwidth, grp.name, grp)
        return best[2] if best is not None else None

    return {
        "addServer": op_add_server,
        "move": op_move,
        "removeServer": op_remove_server,
        "findGoodSGroup": op_find_good_sgroup,
        "findGoodSGrp": op_find_good_sgroup,  # Figure 5 uses both spellings
    }


def _first_client_of(system: ArchSystem, group: Component) -> str:
    clients = [c.name for c in system.neighbors(group) if c.declares_type("ClientT")]
    if not clients:
        raise TacticFailure(f"addServer: group {group.name} serves no clients")
    return clients[0]


# ---------------------------------------------------------------------------
# Figure 5, near verbatim
# ---------------------------------------------------------------------------

FIGURE5_DSL = """
// Figure 5: "An Example Repair Strategy" (HPDC'02), transliterated.
invariant r : averageLatency <= maxLatency ! -> fixLatency(r);

strategy fixLatency(badRole : ClientRoleT) = {
    let badClient : ClientT =
        select one cli : ClientT in self.components |
            exists p : RequestT in cli.ports | attached(p, badRole);
    if (fixServerLoad(badClient)) {
        commit repair;
    } else if (fixBandwidth(badClient, badRole)) {
        commit repair;
    } else {
        abort ModelError;
    }
}

tactic fixServerLoad(client : ClientT) : boolean = {
    let loadedServerGroups : set{ServerGroupT} =
        select sgrp : ServerGroupT in self.components |
            connected(sgrp, client) and sgrp.load > maxServerLoad;
    if (size(loadedServerGroups) == 0) {
        return false;
    }
    foreach sGrp in loadedServerGroups {
        sGrp.addServer();
    }
    return size(loadedServerGroups) > 0;
}

tactic fixBandwidth(client : ClientT, role : ClientRoleT) : boolean = {
    if (role.bandwidth >= minBandwidth) {
        return false;
    }
    let goodSGrp : ServerGroupT = findGoodSGrp(client, minBandwidth);
    if (goodSGrp != nil) {
        client.move(goodSGrp);
        return true;
    } else {
        abort NoServerGroupFound;
    }
}
"""

# The paper's third repair (§3.2): "A third repair (not shown) reduces the
# number of servers in a server group if the server group is underutilized."
UNDERUTILIZATION_DSL = """
invariant u : replication <= minServers or utilization >= minUtilization
    ! -> fixUnderutilization(u);

strategy fixUnderutilization(badGroup : ServerGroupT) = {
    if (shrinkGroup(badGroup)) {
        commit repair;
    } else {
        abort ModelError;
    }
}

tactic shrinkGroup(group : ServerGroupT) : boolean = {
    if (group.replication <= minServers) {
        return false;
    }
    if (group.load > 0.5) {
        return false;
    }
    group.removeServer();
    return true;
}
"""
