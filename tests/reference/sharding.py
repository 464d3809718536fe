"""The rebuilding partition ``ShardedArchSystem.partition`` replaced.

``partition`` used to leave its source intact and give every shard
fresh ``Component`` / ``Connector`` objects carrying the originals'
types and copies of their ports, roles, and properties; it now moves the
source's own elements.  The rebuild is kept here, its body unchanged
but for ``cls`` spelled ``ShardedArchSystem`` and the per-shard copy of
the invariant texts the model no longer carries, so a test partitions two
equal models — one each way — and compares assignment, cross links,
per-shard graphs, properties and unparsed text.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.acme.elements import Component, Connector, Element
from repro.acme.sharding import ShardedArchSystem, ShardKeyFn
from repro.acme.system import ArchSystem

__all__ = ["rebuild_partition"]


def _copy_properties(source: Element, target: Element) -> None:
    for prop in source.properties():
        target.declare_property(prop.name, prop.value, prop.ptype)


def rebuild_partition(
    system: ArchSystem, shards: int, key_fn: ShardKeyFn
) -> ShardedArchSystem:
    """Split ``system`` into ``shards`` independent per-shard systems."""
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    parts = [
        ArchSystem(f"{system.name}[{k}]", family=system.family) for k in range(shards)
    ]
    assignment: Dict[str, int] = {}

    for comp in system.components:
        key = key_fn(comp.name, shards)
        shard = 0 if key is None else int(key) % shards
        assignment[comp.name] = shard
        clone = Component(comp.name, comp.types)
        _copy_properties(comp, clone)
        for port in comp.ports:
            cloned_port = clone.add_port(port.name, port.types)
            _copy_properties(port, cloned_port)
        parts[shard].add_component(clone)

    # A connector's home shard is the shard of its first attached
    # component (sorted attachment order = deterministic); unattached
    # connectors fall back to the key function over their own name.
    home: Dict[str, int] = {}
    for att in system.attachments:
        conn_name = att.role.connector.name
        if conn_name not in home:
            home[conn_name] = assignment[att.port.component.name]
    for conn in system.connectors:
        shard = home.get(conn.name)
        if shard is None:
            key = key_fn(conn.name, shards)
            shard = 0 if key is None else int(key) % shards
        assignment[conn.name] = shard
        clone = Connector(conn.name, conn.types)
        _copy_properties(conn, clone)
        for role in conn.roles:
            cloned_role = clone.add_role(role.name, role.types)
            _copy_properties(role, cloned_role)
        parts[shard].add_connector(clone)

    cross: List[Tuple[str, str, int, int]] = []
    for att in system.attachments:
        port_shard = assignment[att.port.component.name]
        role_shard = assignment[att.role.connector.name]
        if port_shard == role_shard:
            part = parts[port_shard]
            part.attach(
                part.component(att.port.component.name).port(att.port.name),
                part.connector(att.role.connector.name).role(att.role.name),
            )
        else:
            cross.append(
                (
                    att.port.qualified_name,
                    att.role.qualified_name,
                    port_shard,
                    role_shard,
                )
            )
    return ShardedArchSystem(
        system.name, parts, assignment, tuple(cross), family=system.family
    )
