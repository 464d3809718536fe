"""Shard-aware view of an architectural model.

:meth:`ShardedArchSystem.partition` splits one :class:`ArchSystem` into
N independent per-shard systems.  Elements are **rebuilt**, not moved:
an element belongs to exactly one system (its ``system`` back-pointer is
the route its property writes take), so adopting the originals would
take them from the source, and partitioning leaves the source intact
(``test_partition_rebuilds_elements``) — each shard gets fresh
``Component`` / ``Connector`` objects carrying the originals' types and
copies of their ports, roles, and properties.

Assignment is deterministic: components are assigned by the shard-key
function over their (sorted) names; a connector lands on the shard of
its first attached component (in the system's sorted attachment order).
Attachments materialize only when both endpoints share a shard;
attachments that would span shards are recorded in :attr:`cross_links`
— the narrow cross-ensemble coupling the coordinator has to respect —
and dropped from the per-shard graphs.

The facade keeps a global name -> shard :attr:`assignment` plus
delegating lookups (``component`` / ``has_component`` / ...), which is
what the sharded runtime's buses and the coordinator's footprint
admission test consume.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.acme.elements import Component, Connector, Element
from repro.acme.system import ArchSystem
from repro.errors import UnknownElementError

__all__ = ["ShardedArchSystem"]

#: ``(element_name, shards) -> shard index`` (None = no opinion -> shard 0)
ShardKeyFn = Callable[[str, int], Optional[int]]


def _copy_properties(source: Element, target: Element) -> None:
    for prop in source.properties():
        target.declare_property(prop.name, prop.value, prop.ptype)


class ShardedArchSystem:
    """N per-shard :class:`ArchSystem` instances behind one facade."""

    def __init__(
        self,
        name: str,
        shards: List[ArchSystem],
        assignment: Dict[str, int],
        cross_links: Tuple[Tuple[str, str, int, int], ...],
        family: Optional[str] = None,
    ):
        self.name = name
        self.family = family
        self._shards = shards
        #: element name (component or connector) -> owning shard index
        self.assignment = assignment
        #: dropped attachments: (port qname, role qname, port shard, role shard)
        self.cross_links = cross_links

    # -- construction ------------------------------------------------------
    @classmethod
    def partition(
        cls, system: ArchSystem, shards: int, key_fn: ShardKeyFn
    ) -> "ShardedArchSystem":
        """Split ``system`` into ``shards`` independent per-shard systems."""
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        parts = [
            ArchSystem(f"{system.name}[{k}]", family=system.family)
            for k in range(shards)
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
        for part in parts:
            part.invariant_sources = list(system.invariant_sources)
        return cls(system.name, parts, assignment, tuple(cross), family=system.family)

    # -- shard access ------------------------------------------------------
    @property
    def shards(self) -> List[ArchSystem]:
        return list(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard(self, index: int) -> ArchSystem:
        return self._shards[index]

    def shard_of(self, name: str) -> Optional[int]:
        """Owning shard of a component/connector name (None = unknown)."""
        return self.assignment.get(name)

    def shards_of_elements(self, qualified_names) -> Set[int]:
        """Shards owning the given qualified element names.

        Port/role qualified names (``comp.port``) resolve through their
        owner; names the assignment does not know map to *every* shard —
        the conservative answer for footprint admission.
        """
        out: Set[int] = set()
        for qname in qualified_names:
            owner = qname.split(".", 1)[0]
            shard = self.assignment.get(owner)
            if shard is None:
                return set(range(len(self._shards)))
            out.add(shard)
        return out

    # -- delegating lookups ------------------------------------------------
    def component(self, name: str) -> Component:
        shard = self.assignment.get(name)
        if shard is None or not self._shards[shard].has_component(name):
            raise UnknownElementError(f"no component {name!r} in {self.name}")
        return self._shards[shard].component(name)

    def has_component(self, name: str) -> bool:
        shard = self.assignment.get(name)
        return shard is not None and self._shards[shard].has_component(name)

    def connector(self, name: str) -> Connector:
        shard = self.assignment.get(name)
        if shard is None or not self._shards[shard].has_connector(name):
            raise UnknownElementError(f"no connector {name!r} in {self.name}")
        return self._shards[shard].connector(name)

    def has_connector(self, name: str) -> bool:
        shard = self.assignment.get(name)
        return shard is not None and self._shards[shard].has_connector(name)

    @property
    def components(self) -> List[Component]:
        out = [c for part in self._shards for c in part.components]
        return sorted(out, key=lambda c: c.name)

    @property
    def connectors(self) -> List[Connector]:
        out = [c for part in self._shards for c in part.connectors]
        return sorted(out, key=lambda c: c.name)

    def components_of_type(self, type_name: str) -> List[Component]:
        return [c for c in self.components if c.declares_type(type_name)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(str(len(part.components)) for part in self._shards)
        return (
            f"<ShardedArchSystem {self.name}: {len(self._shards)} shards "
            f"({sizes} components), {len(self.cross_links)} cross links>"
        )
