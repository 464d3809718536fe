"""Shard-aware view of an architectural model.

:meth:`ShardedArchSystem.partition` splits one :class:`ArchSystem` into
N independent per-shard systems.  Elements are **moved**, not copied:
an element belongs to exactly one system (its ``system`` back-pointer is
the route its property writes take), so each shard adopts the source's
own components and connectors, ports and roles with them, and binds the
source's own ``Attachment`` objects.  The source is left empty
(``test_partition_moves_elements``); the rebuilding partition this
replaced is the oracle in ``tests/reference/sharding.py``.

Assignment is deterministic: components are assigned by the shard-key
function over their (sorted) names; a connector lands on the shard of
its first attached component (in the system's sorted attachment order).
Attachments materialize only when both endpoints share a shard;
attachments that would span shards are recorded in :attr:`cross_links`
— the narrow cross-ensemble coupling between shards — and dropped from
the per-shard graphs.

The facade keeps a global name -> shard :attr:`assignment` plus
delegating lookups (``component`` / ``has_component`` / ...), which is
what the runtime's buses consume; a name it does not know (added after
the partition) is looked up on shard 0, where the buses route it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.acme.elements import Component, Connector
from repro.acme.system import ArchSystem
from repro.errors import UnknownElementError

__all__ = ["ShardedArchSystem"]

#: ``(element_name, shards) -> shard index`` (None = no opinion -> shard 0)
ShardKeyFn = Callable[[str, int], Optional[int]]


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
        """Move ``system``'s elements into ``shards`` per-shard systems and
        leave ``system`` **empty**: no element or attachment, a fresh
        structure epoch, and a change log that no longer reaches back.
        One shard is ``system`` itself: nothing moves, nothing is renamed."""
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        if shards == 1:
            assignment = dict.fromkeys(system._components, 0)
            assignment.update(dict.fromkeys(system._connectors, 0))
            return cls(system.name, [system], assignment, (), family=system.family)
        parts = [
            ArchSystem(f"{system.name}[{k}]", family=system.family)
            for k in range(shards)
        ]
        assignment: Dict[str, int] = {}

        for comp in system.components:
            key = key_fn(comp.name, shards)
            shard = 0 if key is None else int(key) % shards
            assignment[comp.name] = shard
            parts[shard].add_component(comp)

        # A connector's home shard is the shard of its first attached
        # component (sorted attachment order = deterministic); unattached
        # connectors fall back to the key function over their own name.
        attachments = system.attachments
        home: Dict[str, int] = {}
        for att in attachments:
            conn_name = att.role.connector.name
            if conn_name not in home:
                home[conn_name] = assignment[att.port.component.name]
        for conn in system.connectors:
            shard = home.get(conn.name)
            if shard is None:
                key = key_fn(conn.name, shards)
                shard = 0 if key is None else int(key) % shards
            assignment[conn.name] = shard
            parts[shard].add_connector(conn)

        cross: List[Tuple[str, str, int, int]] = []
        for att in attachments:
            port_shard = assignment[att.port.component.name]
            role_shard = assignment[att.role.connector.name]
            if port_shard == role_shard:
                parts[port_shard]._bind(att)
            else:
                port_qname, role_qname = att.key
                cross.append((port_qname, role_qname, port_shard, role_shard))
        for part in parts:
            part._touch_structure()  # the attachments just bound

        system._components.clear()
        system._connectors.clear()
        system._attachments.clear()
        system._role_attachment.clear()
        system._dirty_log.clear()
        system._touch_structure()
        system._dirty_floor = system.epoch
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

    # -- delegating lookups ------------------------------------------------
    def _home(self, name: str) -> ArchSystem:
        return self._shards[self.assignment.get(name, 0)]

    def component(self, name: str) -> Component:
        part = self._home(name)
        if not part.has_component(name):
            raise UnknownElementError(f"no component {name!r} in {self.name}")
        return part.component(name)

    def has_component(self, name: str) -> bool:
        return self._home(name).has_component(name)

    def connector(self, name: str) -> Connector:
        part = self._home(name)
        if not part.has_connector(name):
            raise UnknownElementError(f"no connector {name!r} in {self.name}")
        return part.connector(name)

    def has_connector(self, name: str) -> bool:
        return self._home(name).has_connector(name)

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
