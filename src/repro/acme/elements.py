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
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Optional

from repro.acme.properties import PropertyBag, PropertyListener
from repro.errors import AttachmentError, DuplicateElementError, UnknownElementError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.acme.system import ArchSystem

__all__ = ["Element", "Port", "Role", "Component", "Connector", "Attachment"]


def _check_name(name: str) -> str:
    """``[A-Za-z_][A-Za-z0-9_]*``: what ``isidentifier`` accepts of ASCII."""
    if not (name and name.isascii() and name.isidentifier()):
        raise UnknownElementError(
            f"invalid element name {name!r} (identifier expected)"
        )
    return name


#: one frozenset per distinct type ascription, shared by every element
#: that declares it (a thousand pools declare the same one).  Only ever
#: grows by a family's worth of immutable values.
_TYPE_SETS: Dict[FrozenSet[str], FrozenSet[str]] = {}


def _slot_edited(system: "ArchSystem", what: str, table, name, element) -> None:
    """Report one port or role edit with its undo, which puts ``element``
    back under ``name`` in ``table`` (``None``: takes ``name`` out)."""

    def undo() -> None:
        if element is None:
            table.pop(name, None)
        else:
            table[name] = element
        system._touch_structure()

    system._mutated(what, undo)


class Element(PropertyBag):
    """Base: a named, typed, property-carrying model object.

    ``types`` is the (frozen) set of declared architectural types (e.g.
    ``{"ClientT"}``); an element may declare several (Acme allows multiple
    type ascription).

    An element belongs to at most one :class:`ArchSystem`, named by
    ``system``.  That back-pointer is the route a property write takes
    to the system's change log, listeners and undo records
    (:meth:`ArchSystem._property_written`); it is set by adoption and
    survives removal, so an element a transaction's abort puts back is
    still heard.
    """

    __slots__ = ("name", "types", "system", "dirty_epoch")

    kind: str = "element"

    def __init__(self, name: str, types: Optional[Iterable[str]] = None):
        super().__init__()
        self.name = _check_name(name)
        declared = frozenset(types or ())
        self.types: FrozenSet[str] = _TYPE_SETS.setdefault(declared, declared)
        self.system: Optional["ArchSystem"] = None
        #: owning system's epoch at this element's last property write;
        #: maintained by :meth:`ArchSystem._property_written`
        self.dirty_epoch: int = 0

    def declares_type(self, type_name: str) -> bool:
        return type_name in self.types

    # -- observation: the owning system hears through the back-pointer ----------
    def on_property_change(self, listener: PropertyListener) -> None:
        """Hear this element's property changes.

        Once an element has listeners of its own, its list is the whole
        hearing order and the owning system holds a place in it: first
        when the element was adopted before anyone listened, else where
        :meth:`ArchSystem._adopt` put it.
        """
        if self._prop_listeners is None and self.system is not None:
            self._prop_listeners = [self.system._property_written]
        super().on_property_change(listener)

    def _notify(self, name: str, old: Any, new: Any) -> None:
        heard = self._prop_listeners
        if heard is not None:
            for listener in heard:
                listener(self, name, old, new)
        elif self.system is not None:
            self.system._property_written(self, name, old, new)

    @property
    def qualified_name(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ts = ",".join(sorted(self.types)) or "untyped"
        return f"<{self.kind} {self.qualified_name}:{ts}>"


class Port(Element):
    """An interaction point on a component."""

    __slots__ = ("component",)

    kind = "port"

    def __init__(
        self, name: str, component: "Component", types: Optional[Iterable[str]] = None
    ):
        super().__init__(name, types)
        self.component = component

    @property
    def qualified_name(self) -> str:
        return f"{self.component.name}.{self.name}"


class Role(Element):
    """A participant slot on a connector (e.g. a client role)."""

    __slots__ = ("connector",)

    kind = "role"

    def __init__(
        self, name: str, connector: "Connector", types: Optional[Iterable[str]] = None
    ):
        super().__init__(name, types)
        self.connector = connector

    @property
    def qualified_name(self) -> str:
        return f"{self.connector.name}.{self.name}"


class Component(Element):
    """A computational element or data store (client, server, group...)."""

    __slots__ = ("_ports", "representation")

    kind = "component"

    def __init__(self, name: str, types: Optional[Iterable[str]] = None):
        super().__init__(name, types)
        self._ports: Dict[str, Port] = {}
        self.representation: Optional["ArchSystem"] = None

    # -- ports ------------------------------------------------------------------
    def add_port(self, name: str, types: Optional[Iterable[str]] = None) -> Port:
        if name in self._ports:
            raise DuplicateElementError(f"port {name!r} already on {self.name!r}")
        port = Port(name, self, types)
        self._ports[name] = port
        if self.system is not None:
            self.system._adopt(port)  # late port: owned from now on
            self.system._touch_structure()
            if self.system._mutation_listeners:
                what = f"add port {port.qualified_name}"
                _slot_edited(self.system, what, self._ports, name, None)
        return port

    def remove_port(self, name: str) -> Port:
        """Remove a port and every attachment that names it."""
        port = self.port(name)
        system = self.system
        if system is not None:
            for att in system.attachments:
                if att.port is port:
                    system.detach(port, att.role)
        del self._ports[name]
        if system is not None:
            system._touch_structure()
            if system._mutation_listeners:
                what = f"remove port {port.qualified_name}"
                _slot_edited(system, what, self._ports, name, port)
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

    __slots__ = ("_roles",)

    kind = "connector"

    def __init__(self, name: str, types: Optional[Iterable[str]] = None):
        super().__init__(name, types)
        self._roles: Dict[str, Role] = {}

    # -- roles ------------------------------------------------------------------
    def add_role(self, name: str, types: Optional[Iterable[str]] = None) -> Role:
        if name in self._roles:
            raise DuplicateElementError(f"role {name!r} already on {self.name!r}")
        role = Role(name, self, types)
        self._roles[name] = role
        if self.system is not None:
            self.system._adopt(role)  # late role: owned from now on
            self.system._touch_structure()
            if self.system._mutation_listeners:
                what = f"add role {role.qualified_name}"
                _slot_edited(self.system, what, self._roles, name, None)
        return role

    def remove_role(self, name: str) -> Role:
        """Remove a role and every attachment that names it."""
        role = self.role(name)
        system = self.system
        if system is not None:
            for att in system.attachments:
                if att.role is role:
                    system.detach(att.port, role)
        del self._roles[name]
        if system is not None:
            system._touch_structure()
            if system._mutation_listeners:
                what = f"remove role {role.qualified_name}"
                _slot_edited(system, what, self._roles, name, role)
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

    # spelled out: ``slots=True`` on a frozen dataclass breaks the refusal of
    # an undeclared attribute (TypeError from a stale ``super()``) before 3.12
    __slots__ = ("port", "role")

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
