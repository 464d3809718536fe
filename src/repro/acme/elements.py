"""Architectural elements: components, connectors, ports, roles, attachments.

The representation scheme of §2: "an architectural model is represented as
a graph of interacting components... Nodes are termed components...  Arcs
are termed connectors"; components expose **ports**, connectors expose
**roles**, and an **attachment** binds a port to a role.  A component may
carry a *representation* — a nested sub-architecture — which is how the
paper draws a server group containing replicated servers (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.acme.properties import PropertyBag
from repro.errors import AttachmentError, DuplicateElementError, UnknownElementError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.acme.system import ArchSystem

__all__ = ["Element", "Port", "Role", "Component", "Connector", "Attachment"]

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(ch not in _IDENT_OK for ch in name):
        raise UnknownElementError(f"invalid element name {name!r} (identifier expected)")
    return name


class Element(PropertyBag):
    """Base: a named, typed, property-carrying model object.

    ``types`` is the set of declared architectural types (e.g.
    ``{"ClientT"}``); an element may declare several (Acme allows multiple
    type ascription).
    """

    kind: str = "element"

    def __init__(self, name: str, types: Optional[Set[str]] = None):
        super().__init__()
        self.name = _check_name(name)
        self.types: Set[str] = set(types or ())
        self.system: Optional["ArchSystem"] = None
        #: owning system's epoch at this element's last property write;
        #: maintained by :meth:`ArchSystem._touch`
        self.dirty_epoch: int = 0

    def declares_type(self, type_name: str) -> bool:
        return type_name in self.types

    @property
    def qualified_name(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ts = ",".join(sorted(self.types)) or "untyped"
        return f"<{self.kind} {self.qualified_name}:{ts}>"


class Port(Element):
    """An interaction point on a component."""

    kind = "port"

    def __init__(self, name: str, component: "Component", types: Optional[Set[str]] = None):
        super().__init__(name, types)
        self.component = component

    @property
    def qualified_name(self) -> str:
        return f"{self.component.name}.{self.name}"


class Role(Element):
    """A participant slot on a connector (e.g. a client role)."""

    kind = "role"

    def __init__(self, name: str, connector: "Connector", types: Optional[Set[str]] = None):
        super().__init__(name, types)
        self.connector = connector

    @property
    def qualified_name(self) -> str:
        return f"{self.connector.name}.{self.name}"


class Component(Element):
    """A computational element or data store (client, server, group...)."""

    kind = "component"

    def __init__(self, name: str, types: Optional[Set[str]] = None):
        super().__init__(name, types)
        self._ports: Dict[str, Port] = {}
        self.representation: Optional["ArchSystem"] = None

    # -- ports ------------------------------------------------------------------
    def add_port(self, name: str, types: Optional[Set[str]] = None) -> Port:
        if name in self._ports:
            raise DuplicateElementError(f"port {name!r} already on {self.name!r}")
        port = Port(name, self, types)
        self._ports[name] = port
        if self.system is not None:
            self.system._adopt(port)  # late port: wire change forwarding now
            self.system._touch_structure()
        return port

    def remove_port(self, name: str) -> Port:
        if name not in self._ports:
            raise UnknownElementError(f"no port {name!r} on {self.name!r}")
        port = self._ports.pop(name)
        if self.system is not None:
            self.system._touch_structure()
        return port

    def port(self, name: str) -> Port:
        try:
            return self._ports[name]
        except KeyError:
            raise UnknownElementError(f"no port {name!r} on {self.name!r}") from None

    def has_port(self, name: str) -> bool:
        return name in self._ports

    @property
    def ports(self) -> List[Port]:
        return [self._ports[k] for k in sorted(self._ports)]


class Connector(Element):
    """An interaction pathway (request queue + network in the example)."""

    kind = "connector"

    def __init__(self, name: str, types: Optional[Set[str]] = None):
        super().__init__(name, types)
        self._roles: Dict[str, Role] = {}

    # -- roles ------------------------------------------------------------------
    def add_role(self, name: str, types: Optional[Set[str]] = None) -> Role:
        if name in self._roles:
            raise DuplicateElementError(f"role {name!r} already on {self.name!r}")
        role = Role(name, self, types)
        self._roles[name] = role
        if self.system is not None:
            self.system._adopt(role)  # late role: wire change forwarding now
            self.system._touch_structure()
        return role

    def remove_role(self, name: str) -> Role:
        if name not in self._roles:
            raise UnknownElementError(f"no role {name!r} on {self.name!r}")
        role = self._roles.pop(name)
        if self.system is not None:
            self.system._touch_structure()
        return role

    def role(self, name: str) -> Role:
        try:
            return self._roles[name]
        except KeyError:
            raise UnknownElementError(f"no role {name!r} on {self.name!r}") from None

    def has_role(self, name: str) -> bool:
        return name in self._roles

    @property
    def roles(self) -> List[Role]:
        return [self._roles[k] for k in sorted(self._roles)]


@dataclass(frozen=True)
class Attachment:
    """A binding: component ``port`` participates as connector ``role``."""

    port: Port
    role: Role

    def __post_init__(self) -> None:
        if not isinstance(self.port, Port) or not isinstance(self.role, Role):
            raise AttachmentError("attachment requires a Port and a Role")

    @property
    def key(self) -> tuple:
        return (self.port.qualified_name, self.role.qualified_name)

    def __str__(self) -> str:
        return f"{self.port.qualified_name} to {self.role.qualified_name}"
