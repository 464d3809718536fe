"""The architectural system: a mutable graph of components and connectors.

Every mutation (element add/remove, attach/detach, property set) is
observable and reports an **undo closure**, which is what the repair
engine's transactions stack to implement Figure 5's ``commit repair`` /
``abort`` semantics (see :mod:`repro.repair.transactions`).  The record
(closure and description) is built only while a mutation listener is
registered: a model nobody is editing transactionally pays for neither.

Ownership is a back-pointer: ``Element.system`` names the one system an
element belongs to, and a property write reaches
:meth:`ArchSystem._property_written` through it — no per-element
forwarding object exists.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.acme.elements import Attachment, Component, Connector, Element, Port, Role
from repro.acme.properties import PROPERTY_ABSENT, PropertyListener
from repro.errors import (
    AttachmentError,
    DuplicateElementError,
    UnknownElementError,
)

__all__ = ["ArchSystem"]

# (description, undo_closure) delivered to mutation listeners
MutationListener = Callable[[str, Callable[[], None]], None]

#: bound on the per-system dirty log; when exceeded, incremental
#: consumers that fell too far behind get a ``None`` ("do a full pass")
_DIRTY_LOG_CAP = 4096

#: value types whose ``==`` says whether a write changed anything
_SCALARS = (float, int, bool, str)


class ArchSystem:
    """A named architecture instance, optionally conforming to a family."""

    def __init__(self, name: str, family: Optional[str] = None):
        self.name = name
        self.family = family  # family *name*; resolved via repro.acme.family
        self._components: Dict[str, Component] = {}
        self._connectors: Dict[str, Connector] = {}
        self._attachments: Dict[tuple, Attachment] = {}
        #: role -> its attachment; kept in step with ``_attachments`` by
        #: ``_bind``/``_unbind`` so ``attach`` checks a role in O(1)
        self._role_attachment: Dict[Role, Attachment] = {}
        self._mutation_listeners: List[MutationListener] = []
        self._property_listeners: List[PropertyListener] = []
        #: monotone change counter: bumped by every property/structural
        #: mutation (including transaction undo); the incremental
        #: constraint checker keys its result cache on this
        self.epoch: int = 0
        #: ``epoch`` value of the last *structural* mutation (element
        #: add/remove, port/role add/remove, attach/detach) — structural
        #: changes invalidate cached invariant scope lists wholesale
        self.structure_epoch: int = 0
        #: the change log: ``(epoch, element, moved)`` per property write.
        #: Every write is logged (repair footprints are made of what was
        #: *written*); ``moved`` is False for a write that put back the
        #: value already there, which the constraint checker may skip
        self._dirty_log: Deque[Tuple[int, Element, bool]] = deque()
        self._dirty_floor: int = 0  # epochs <= floor fell off the log

    # ------------------------------------------------------------------
    # Change epochs (incremental constraint evaluation)
    # ------------------------------------------------------------------
    def _touch_structure(self) -> None:
        """Record a structural mutation (scope sets may have changed)."""
        self.epoch += 1
        self.structure_epoch = self.epoch

    def dirty_elements_since(
        self, epoch: int, moved_only: bool = False
    ) -> Optional[List[Element]]:
        """Elements whose properties were written after ``epoch``
        (deduplicated, most recent first), or None when the log no longer
        reaches back that far and the caller must fall back to a full pass.

        ``moved_only`` leaves out writes that put back the value already
        there: what a reader of *values* (the constraint checker) has to
        look at again, where the default is what a reader of *writes*
        (a repair's footprint) has to account for."""
        if epoch < self._dirty_floor:
            return None
        out: List[Element] = []
        seen: Set[int] = set()
        for logged_epoch, element, moved in reversed(self._dirty_log):
            if logged_epoch <= epoch:
                break
            if moved_only and not moved:
                continue
            marker = id(element)
            if marker not in seen:
                seen.add(marker)
                out.append(element)
        return out

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def on_mutation(self, listener: MutationListener) -> None:
        """Hear every structural/property change with its undo closure."""
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        """Stop notifying ``listener`` (no-op when already removed).

        Transactions detach themselves on commit/abort so mutation
        dispatch stays O(active transactions), not O(all repairs ever)."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def on_property_change(self, listener: PropertyListener) -> None:
        """Hear property changes of all owned elements (incl. ports/roles)."""
        self._property_listeners.append(listener)

    def _mutated(self, description: str, undo: Callable[[], None]) -> None:
        for listener in self._mutation_listeners:
            listener(description, undo)

    def _adopt(self, element: Element) -> None:
        """Take ownership of one element: its ``system`` back-pointer is
        the route its writes take to :meth:`_property_written`.  Only an
        element that already has listeners of its own needs more — the
        system's place in their order (see ``Element.on_property_change``),
        after those registered so far and instead of a previous owner's."""
        heard = element._prop_listeners
        if heard is not None and element.system is not self:
            if element.system is not None:
                heard.remove(element.system._property_written)
            heard.append(self._property_written)
        element.system = self

    def _property_written(self, owner: Element, name: str, old: Any, new: Any) -> None:
        """Every property write of an owned element ends here
        (:meth:`Element._notify`): a fresh epoch and a change-log entry,
        the system's property listeners, and — only while a mutation
        listener exists — the undo record.

        The log's ``moved`` flag says whether the write changed what a
        reader of the value can see.  Only a scalar rewritten with an
        equal scalar of the *same* type has not moved.  Everything else
        has: ``1`` over ``1.0`` or ``True`` (equal, but ``/`` and
        ``isinstance`` tell them apart), NaN (never equal to itself), a
        container (it may have been edited in place, or compare by a
        user's ``__eq__``), declaring and removing a property.
        """
        self.epoch = epoch = self.epoch + 1
        owner.dirty_epoch = epoch
        log = self._dirty_log
        if len(log) >= _DIRTY_LOG_CAP:
            self._dirty_floor = log.popleft()[0]
        kind = type(new)
        log.append(
            (epoch, owner, not (type(old) is kind and kind in _SCALARS and old == new))
        )
        for listener in self._property_listeners:
            listener(owner, name, old, new)
        if not self._mutation_listeners:
            return  # nobody can undo: skip building the record
        # Property change undo: restore the previous value; a created
        # property is removed again (not left behind as None), and a
        # removed one is re-declared with its last value.
        if old is PROPERTY_ABSENT:
            undo = lambda o=owner, n=name: o.remove_property(n)  # noqa: E731
        else:
            undo = lambda o=owner, n=name, v=old: o.set_property(n, v)  # noqa: E731
        self._mutated(f"set {owner.qualified_name}.{name}", undo)

    # ------------------------------------------------------------------
    # Components / connectors
    # ------------------------------------------------------------------
    def add_component(self, component: Component) -> Component:
        if component.name in self._components or component.name in self._connectors:
            raise DuplicateElementError(f"element {component.name!r} already in system")
        self._components[component.name] = component
        self._adopt(component)
        for port in component.ports:
            self._adopt(port)
        self._touch_structure()
        if self._mutation_listeners:
            self._mutated(
                f"add component {component.name}",
                lambda: self._silent_remove_component(component.name),
            )
        return component

    def new_component(self, name: str, types: Iterable[str] = ()) -> Component:
        return self.add_component(Component(name, types))

    def remove_component(self, name: str) -> Component:
        """Remove a component and every attachment touching its ports."""
        comp = self.component(name)
        dropped = [a for a in self.attachments if a.port.component is comp]
        for att in dropped:
            self._unbind(att)  # the undo below binds each back, once
        del self._components[name]
        self._touch_structure()
        if self._mutation_listeners:

            def undo() -> None:
                self._components[name] = comp
                for att in dropped:
                    self._bind(att)
                self._touch_structure()

            self._mutated(f"remove component {name}", undo)
        return comp

    def _silent_remove_component(self, name: str) -> None:
        comp = self._components.pop(name, None)
        if comp is None:
            return
        for att in list(self._attachments.values()):
            if att.port.component is comp:
                self._unbind(att)
        self._touch_structure()

    def add_connector(self, connector: Connector) -> Connector:
        if connector.name in self._connectors or connector.name in self._components:
            raise DuplicateElementError(f"element {connector.name!r} already in system")
        self._connectors[connector.name] = connector
        self._adopt(connector)
        for role in connector.roles:
            self._adopt(role)
        self._touch_structure()
        if self._mutation_listeners:
            self._mutated(
                f"add connector {connector.name}",
                lambda: self._silent_remove_connector(connector.name),
            )
        return connector

    def new_connector(self, name: str, types: Iterable[str] = ()) -> Connector:
        return self.add_connector(Connector(name, types))

    def remove_connector(self, name: str) -> Connector:
        conn = self.connector(name)
        dropped = [a for a in self.attachments if a.role.connector is conn]
        for att in dropped:
            self._unbind(att)  # the undo below binds each back, once
        del self._connectors[name]
        self._touch_structure()
        if self._mutation_listeners:

            def undo() -> None:
                self._connectors[name] = conn
                for att in dropped:
                    self._bind(att)
                self._touch_structure()

            self._mutated(f"remove connector {name}", undo)
        return conn

    def _silent_remove_connector(self, name: str) -> None:
        conn = self._connectors.pop(name, None)
        if conn is None:
            return
        for att in list(self._attachments.values()):
            if att.role.connector is conn:
                self._unbind(att)
        self._touch_structure()

    # ------------------------------------------------------------------
    # Attachments
    # ------------------------------------------------------------------
    def _bind(self, att: Attachment) -> None:
        self._attachments[att.key] = att
        self._role_attachment[att.role] = att

    def _unbind(self, att: Attachment) -> None:
        del self._attachments[att.key]
        self._role_attachment.pop(att.role, None)

    def attach(self, port: Port, role: Role) -> Attachment:
        """Bind ``port`` to ``role``; each role holds at most one port."""
        if port.component.name not in self._components:
            raise AttachmentError(f"{port.qualified_name}: component not in system")
        if role.connector.name not in self._connectors:
            raise AttachmentError(f"{role.qualified_name}: connector not in system")
        if role in self._role_attachment:
            raise AttachmentError(f"role {role.qualified_name} is already attached")
        att = Attachment(port, role)
        if att.key in self._attachments:
            raise AttachmentError(f"duplicate attachment {att}")
        self._bind(att)
        self._touch_structure()
        if self._mutation_listeners:

            def undo() -> None:
                current = self._attachments.get(att.key)
                if current is not None:
                    self._unbind(current)
                self._touch_structure()

            self._mutated(f"attach {att}", undo)
        return att

    def detach(self, port: Port, role: Role) -> None:
        key = (port.qualified_name, role.qualified_name)
        att = self._attachments.get(key)
        if att is None:
            raise AttachmentError(
                f"no attachment {port.qualified_name} to {role.qualified_name}"
            )
        self._unbind(att)
        self._touch_structure()
        if self._mutation_listeners:

            def undo() -> None:
                self._bind(att)
                self._touch_structure()

            self._mutated(f"detach {att}", undo)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise UnknownElementError(f"no component {name!r} in {self.name}") from None

    def connector(self, name: str) -> Connector:
        try:
            return self._connectors[name]
        except KeyError:
            raise UnknownElementError(f"no connector {name!r} in {self.name}") from None

    def has_component(self, name: str) -> bool:
        return name in self._components

    def has_connector(self, name: str) -> bool:
        return name in self._connectors

    @property
    def components(self) -> List[Component]:
        return [self._components[k] for k in sorted(self._components)]

    @property
    def connectors(self) -> List[Connector]:
        return [self._connectors[k] for k in sorted(self._connectors)]

    @property
    def attachments(self) -> List[Attachment]:
        return [self._attachments[k] for k in sorted(self._attachments)]

    # ------------------------------------------------------------------
    # Graph queries (used by the constraint stdlib and repair scripts)
    # ------------------------------------------------------------------
    def components_of_type(self, type_name: str) -> List[Component]:
        return [c for c in self.components if c.declares_type(type_name)]

    def attached_role(self, port: Port) -> Optional[Role]:
        for att in self._attachments.values():
            if att.port is port:
                return att.role
        return None

    def attached_port(self, role: Role) -> Optional[Port]:
        att = self._role_attachment.get(role)
        return att.port if att is not None else None

    def is_attached(self, a: Element, b: Element) -> bool:
        """True when (port, role) in either order form an attachment."""
        if isinstance(a, Port) and isinstance(b, Role):
            return (a.qualified_name, b.qualified_name) in self._attachments
        if isinstance(a, Role) and isinstance(b, Port):
            return (b.qualified_name, a.qualified_name) in self._attachments
        return False

    def connectors_of(self, component: Component) -> List[Connector]:
        """Connectors reachable from any of the component's ports."""
        found: Dict[str, Connector] = {}
        for att in self._attachments.values():
            if att.port.component is component:
                found[att.role.connector.name] = att.role.connector
        return [found[k] for k in sorted(found)]

    def components_on(self, connector: Connector) -> List[Component]:
        found: Dict[str, Component] = {}
        for att in self._attachments.values():
            if att.role.connector is connector:
                found[att.port.component.name] = att.port.component
        return [found[k] for k in sorted(found)]

    def connected(self, a: Component, b: Component) -> bool:
        """True when some connector links components ``a`` and ``b``."""
        if a is b:
            return False
        for conn in self.connectors_of(a):
            if any(c is b for c in self.components_on(conn)):
                return True
        return False

    def neighbors(self, component: Component) -> List[Component]:
        out: Dict[str, Component] = {}
        for conn in self.connectors_of(component):
            for other in self.components_on(conn):
                if other is not component:
                    out[other.name] = other
        return [out[k] for k in sorted(out)]
