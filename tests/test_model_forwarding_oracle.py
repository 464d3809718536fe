"""The model's forwarding, checked against the closures it replaced.

An element's property write reaches its system through the ``system``
back-pointer (``Element._notify`` -> ``ArchSystem._property_written``).
Until d45de41 it went through a ``forward`` closure that ``_adopt``
appended to an eager per-element listener list, and every structural
edit built its undo closure and description whether or not anyone
listened.  ``ClosureSystem`` below is that system where the two differ,
its methods kept verbatim; the only adjustment is that ``_adopt``
registers ``forward`` through ``PropertyBag.on_property_change`` (the
parent's plain append), because today's ``Element.on_property_change``
would put the back-pointer route in front of it.  ``remove_component``
and ``remove_connector`` are today's: since they unbind their
attachments themselves (one undo record, which binds each dropped
attachment back once), the old ones — a ``detach`` per attachment —
differ in epochs and descriptions for a reason that is not forwarding.

Random scripts run on both in lockstep: declare / set / remove property
on components, ports, roles and connectors (same value again, ``1`` ->
``1.0`` -> ``True``, NaN, a container), add / remove component,
connector, late port and role, attach / detach, ``ModelTransaction``
begin / commit / abort, element-level, system-level and mutation
listeners registered before and after adoption.  After every step the
two agree on the operation's outcome, ``epoch``, ``structure_epoch``,
the dirty floor, ``dirty_elements_since`` at a spread of epochs with and
without ``moved_only``, every ``dirty_epoch``, the listener call
sequence (each call stamped with the epoch it saw, which is what places
the system's own hearing among the element's listeners), the mutation
descriptions and the unparsed model text.

Scripts never re-add an element that was removed: the closures doubled
up on a second adoption (every later write counted twice), which the
back-pointer cannot do — ``tests/test_acme_system.py`` pins the single
count.  ``TestTheOracleHasTeeth`` runs the same scripts against mutants
of today's code and wants each of them caught.
"""

import __future__

import inspect
import random
import textwrap
from typing import Any, Callable

import pytest
from hypothesis import Phase, find, given, settings, strategies as st
from hypothesis.errors import NoSuchExample

import repro.acme.system as system_module
from repro.acme.elements import Attachment, Component, Connector, Element, Port, Role
from repro.acme.properties import PROPERTY_ABSENT, PropertyBag
from repro.acme.system import ArchSystem
from repro.acme.unparser import unparse_system
from repro.errors import (
    AttachmentError,
    DuplicateElementError,
    PropertyError,
    TransactionError,
    UnknownElementError,
)
from repro.repair.transactions import ModelTransaction

#: small, so that scripts of a few dozen writes push entries off the log
DIRTY_LOG_CAP = 4


@pytest.fixture(autouse=True, scope="module")
def small_dirty_log():
    patch = pytest.MonkeyPatch()
    patch.setattr(system_module, "_DIRTY_LOG_CAP", DIRTY_LOG_CAP)
    yield
    patch.undo()


# ---------------------------------------------------------------------------
# The oracle: the replaced forwarding, verbatim
# ---------------------------------------------------------------------------
_SCALARS = (float, int, bool, str)


def _moved(old: Any, new: Any) -> bool:
    kind = type(new)
    return not (type(old) is kind and kind in _SCALARS and old == new)


class ClosureSystem(ArchSystem):
    """``ArchSystem`` at d45de41, where it differs from today's."""

    def _touch(self, element: Element, moved: bool) -> None:
        self.epoch += 1
        element.dirty_epoch = self.epoch
        log = self._dirty_log
        if len(log) >= system_module._DIRTY_LOG_CAP:
            self._dirty_floor = log.popleft()[0]
        log.append((self.epoch, element, moved))

    def _adopt(self, element: Element) -> None:
        """Take ownership: forward property changes + undo records."""
        element.system = self

        def forward(owner, name, old, new, _elem=element):
            self._touch(_elem if owner is _elem else owner, _moved(old, new))
            for listener in self._property_listeners:
                listener(_elem if owner is _elem else owner, name, old, new)
            if not self._mutation_listeners:
                return  # nobody can undo: skip building the record
            # Property change undo: restore the previous value; a created
            # property is removed again (not left behind as None), and a
            # removed one is re-declared with its last value.
            if old is PROPERTY_ABSENT:
                undo = lambda o=owner, n=name: o.remove_property(n)  # noqa: E731
            else:
                undo = lambda o=owner, n=name, v=old: o.set_property(n, v)  # noqa: E731
            self._mutated(f"set {getattr(owner, 'qualified_name', '?')}.{name}", undo)

        PropertyBag.on_property_change(element, forward)
        if isinstance(element, Component):
            for port in element.ports:
                self._adopt(port)
        if isinstance(element, Connector):
            for role in element.roles:
                self._adopt(role)

    def add_component(self, component: Component) -> Component:
        if component.name in self._components or component.name in self._connectors:
            raise DuplicateElementError(f"element {component.name!r} already in system")
        self._components[component.name] = component
        self._adopt(component)
        self._touch_structure()
        self._mutated(
            f"add component {component.name}",
            lambda: self._silent_remove_component(component.name),
        )
        return component

    def add_connector(self, connector: Connector) -> Connector:
        if connector.name in self._connectors or connector.name in self._components:
            raise DuplicateElementError(f"element {connector.name!r} already in system")
        self._connectors[connector.name] = connector
        self._adopt(connector)
        self._touch_structure()
        self._mutated(
            f"add connector {connector.name}",
            lambda: self._silent_remove_connector(connector.name),
        )
        return connector

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

        def undo() -> None:
            self._bind(att)
            self._touch_structure()

        self._mutated(f"detach {att}", undo)


# ---------------------------------------------------------------------------
# One world per system under comparison, driven by the same script
# ---------------------------------------------------------------------------
NAMES = ("load", "size", "note")
#: neighbours are the interesting rewrites: equal value, equal but another
#: type, never equal to itself, edited-in-place candidates
VALUES = (1, 1, 1.0, True, float("nan"), float("nan"), 2.5, "a", "a", None, [1], [1], 0)
PTYPES = ("any", "float", "int", "boolean", "string")
REFUSED = (
    AttachmentError,
    DuplicateElementError,
    PropertyError,
    TransactionError,
    UnknownElementError,
)


def pick(items, index):
    return items[index % len(items)] if items else None


class World:
    """A system, everything a script made in it, and everything it heard."""

    def __init__(self, system_cls=ArchSystem, component_cls=Component):
        self.system = system_cls("Lockstep")
        self.component_cls = component_cls
        self.elements = []  # every element ever made, removed ones included
        self.calls = []  # what every listener heard, in order
        self.descriptions = []
        self.txn = None
        self.last_written = None
        self.serial = 0

    def _name(self, prefix):
        self.serial += 1
        return f"{prefix}{self.serial}"

    # -- listeners ---------------------------------------------------------
    def property_listener(self, prefix) -> Callable:
        label = self._name(prefix)

        def heard(owner, name, old, new):
            change = (owner.qualified_name, name, repr(old), repr(new))
            # the epochs say whether the system heard this write already
            self.calls.append((label, *change, self.system.epoch, owner.dirty_epoch))

        return heard

    def mutation_listener(self) -> Callable:
        label = self._name("m")

        def heard(description, undo):
            self.calls.append((label, description, self.system.epoch))
            self.descriptions.append(description)

        return heard

    # -- targets -----------------------------------------------------------
    def ports(self):
        return [p for c in self.system.components for p in c.ports]

    def roles(self):
        return [r for c in self.system.connectors for r in c.roles]

    def made(self, kind):
        return [e for e in self.elements if e.kind == kind]

    # -- operations --------------------------------------------------------
    def apply(self, op):
        """Run one operation; a refusal is an outcome like any other."""
        try:
            return repr(getattr(self, "op_" + op[0])(*op[1:]))
        except REFUSED as refusal:
            return f"{type(refusal).__name__}: {refusal}"

    def op_component(self, ports, listens):
        comp = self.component_cls(self._name("c"), {"CompT"})
        if listens:  # registered before adoption: ahead of the system
            comp.on_property_change(self.property_listener("e"))
        comp.declare_property("load", 0.5, "float")  # unowned: nobody hears
        for _ in range(ports):
            port = comp.add_port(self._name("p"), {"PortT"})
            if listens:
                port.on_property_change(self.property_listener("e"))
            self.elements.append(port)
        self.elements.append(comp)
        self.system.add_component(comp)
        return comp.name

    def op_connector(self, roles, listens):
        conn = Connector(self._name("k"), {"ConnT"})
        if listens:
            conn.on_property_change(self.property_listener("e"))
        for _ in range(roles):
            role = conn.add_role(self._name("r"))
            if listens:
                role.on_property_change(self.property_listener("e"))
            self.elements.append(role)
        self.elements.append(conn)
        self.system.add_connector(conn)
        return conn.name

    def op_port(self, index):
        comp = pick(self.made("component"), index)  # a removed one still has its system
        if comp is None:
            return None
        port = comp.add_port(self._name("p"))
        self.elements.append(port)
        return port.qualified_name

    def op_role(self, index):
        conn = pick(self.made("connector"), index)
        if conn is None:
            return None
        role = conn.add_role(self._name("r"), {"RoleT"})
        self.elements.append(role)
        return role.qualified_name

    def op_drop_port(self, index):
        free = [p for p in self.ports() if self.system.attached_role(p) is None]
        port = pick(free, index)
        return port and port.component.remove_port(port.name).qualified_name

    def op_drop_role(self, index):
        free = [r for r in self.roles() if self.system.attached_port(r) is None]
        role = pick(free, index)
        return role and role.connector.remove_role(role.name).qualified_name

    def op_remove_component(self, index):
        comp = pick(self.system.components, index)
        return comp and self.system.remove_component(comp.name).name

    def op_remove_connector(self, index):
        conn = pick(self.system.connectors, index)
        return conn and self.system.remove_connector(conn.name).name

    def op_attach(self, port_index, role_index):
        port, role = pick(self.ports(), port_index), pick(self.roles(), role_index)
        if port is None or role is None:
            return None
        return str(self.system.attach(port, role))

    def op_detach(self, index):
        att = pick(self.system.attachments, index)
        return att and self.system.detach(att.port, att.role)

    def op_declare(self, element, name, value, ptype):
        target = pick(self.elements, element)
        if target is None:
            return None
        prop = target.declare_property(
            pick(NAMES, name), pick(VALUES, value), pick(PTYPES, ptype)
        )
        return (prop.name, prop.ptype)

    def op_set(self, element, name, value):
        target = pick(self.elements, element)
        if target is None:
            return None
        self.last_written = (target, pick(NAMES, name))
        return target.set_property(pick(NAMES, name), pick(VALUES, value))

    def op_again(self, value):
        """Write the property written last once more: the rewrites
        (``1`` over ``1``, ``1.0`` over ``1``, NaN over NaN) that say
        whether a write moved."""
        if self.last_written is None:
            return None
        target, name = self.last_written
        return target.set_property(name, pick(VALUES, value))

    def op_unset(self, element, name):
        target = pick(self.elements, element)
        return target and target.remove_property(pick(NAMES, name))

    def op_listen_element(self, element):
        target = pick(self.elements, element)
        return target and target.on_property_change(self.property_listener("e"))

    def op_listen_system(self):
        self.system.on_property_change(self.property_listener("s"))

    def op_listen_mutation(self):
        self.system.on_mutation(self.mutation_listener())

    def op_begin(self):
        if self.txn is None:
            self.txn = ModelTransaction(self.system)
        self.txn.begin()

    def _finish(self, how):
        if self.txn is None:
            return None
        txn, self.txn = self.txn, None
        return getattr(txn, how)()

    def op_commit(self):
        return self._finish("commit")

    def op_abort(self):
        return self._finish("abort")

    # -- what the comparison reads -----------------------------------------
    def observe(self):
        system = self.system
        floor, epoch = system._dirty_floor, system.epoch
        since = {}
        starts = {0, floor - 1, floor, floor + 1, epoch // 2}
        for start in starts.union(range(epoch - 2, epoch + 1)):
            for moved_only in (False, True):
                dirty = system.dirty_elements_since(start, moved_only=moved_only)
                since[start, moved_only] = dirty and [e.qualified_name for e in dirty]
        return {
            "epoch": epoch,
            "structure_epoch": system.structure_epoch,
            "dirty_floor": floor,
            "dirty_since": since,
            "dirty_epochs": [(e.qualified_name, e.dirty_epoch) for e in self.elements],
            "calls": self.calls,
            "descriptions": self.descriptions,
            "text": unparse_system(system),
        }


def lockstep(script, subject=World):
    """Run ``script`` on the closure system and on ``subject()``; any
    difference after any step is an ``AssertionError``."""
    oracle, world = World(ClosureSystem), subject()
    for step, op in enumerate(script):
        wanted, got = oracle.apply(op), world.apply(op)
        assert got == wanted, (step, op)
        wanted, got = oracle.observe(), world.observe()
        for key in wanted:
            assert got[key] == wanted[key], (step, op, key)
    return oracle


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------
index = st.integers(0, 11)
value = st.integers(0, len(VALUES) - 1)
name = st.integers(0, len(NAMES) - 1)
writes = st.one_of(
    st.tuples(st.just("set"), index, name, value),
    st.tuples(st.just("again"), value),
    st.tuples(st.just("again"), value),
    st.tuples(st.just("declare"), index, name, value, st.integers(0, len(PTYPES) - 1)),
    st.tuples(st.just("unset"), index, name),
)
edits = st.one_of(
    st.tuples(st.just("component"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("connector"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("port"), index),
    st.tuples(st.just("role"), index),
    st.tuples(st.just("drop_port"), index),
    st.tuples(st.just("drop_role"), index),
    st.tuples(st.just("remove_component"), index),
    st.tuples(st.just("remove_connector"), index),
    st.tuples(st.just("attach"), index, index),
    st.tuples(st.just("detach"), index),
)
hearing = st.one_of(
    st.tuples(st.just("listen_element"), index),
    st.tuples(st.just("listen_system")),
    st.tuples(st.just("listen_mutation")),
    st.tuples(st.just("begin")),
    st.tuples(st.just("commit")),
    st.tuples(st.just("abort")),
)
#: half of a script writes properties; it opens with something to write to
scripts = st.builds(
    lambda opening, rest: opening + rest,
    st.lists(edits, min_size=2, max_size=4),
    st.lists(st.one_of(writes, writes, edits, hearing), min_size=10, max_size=50),
)


class TestLockstep:
    @settings(max_examples=300, deadline=None)
    @given(scripts)
    def test_back_pointer_forwarding_is_the_closure_forwarding(self, script):
        lockstep(script)

    def test_a_script_that_uses_every_mechanism(self):
        """Not left to chance: listeners on both sides of adoption, a late
        port and role, unmoved and type-changing rewrites, a log that
        overflows, a write to a removed component, an abort that puts it
        back, and a write after that."""
        script = [
            ("listen_system",),
            ("component", 1, True),  # elements 0, 1: c2.p4, c2; heard before adoption
            ("connector", 1, True),  # 2, 3: k6.r8, k6
            ("component", 0, False),  # 4: c10
            ("listen_element", 4),  # ... listened to after adoption
            ("port", 1),  # 5: c10.p12, late
            ("role", 0),  # 6: k6.r13, late
            ("attach", 0, 0),
            ("begin",),
            ("set", 1, 0, 0),  # c2.load: 0.5 -> 1 -> 1 -> 1.0
            ("again", 1),
            ("again", 2),
            ("set", 5, 2, 4),  # NaN over nothing, NaN over NaN
            ("again", 5),
            ("set", 4, 2, 10),  # a list, and an equal list
            ("again", 11),
            ("remove_component", 0),  # c10, with its attachment
            ("set", 4, 2, 7),
            ("abort",),  # written while removed, and heard; now it is back
            ("set", 4, 2, 6),
            ("listen_mutation",),  # ... and heard again, without a second adoption
            ("detach", 0),
            ("remove_connector", 0),
            ("set", 3, 2, 7),
        ]
        oracle = lockstep(script)
        system = oracle.system
        assert system._dirty_floor > 0 and system.dirty_elements_since(0) is None
        assert system.has_component("c10") and system.attachments == []
        assert system.component("c10").dirty_epoch == system.epoch - 3

        def hearers(owner, new):
            return [c[0][0] for c in oracle.calls if c[1] == owner and c[4:5] == (new,)]

        # listening before adoption: ahead of the system; after it: behind
        assert hearers("c2", "1.0") == ["e", "s"]
        assert hearers("c10", "2.5") == ["s", "e"]
        assert oracle.descriptions == [
            "detach c10.p12 to k6.r13",
            "remove connector k6",
            "set k6.note",
        ]


# ---------------------------------------------------------------------------
# The oracle has teeth
# ---------------------------------------------------------------------------
def mutated(cls, method, old, new):
    """A subclass of ``cls`` whose ``method`` is today's source with
    ``old`` replaced by ``new`` (which must occur exactly once)."""
    function = getattr(cls, method)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{cls.__name__}.{method} no longer contains {old!r}"
    namespace = {}
    code = compile(
        source.replace(old, new),
        f"<mutant of {cls.__name__}.{method}>",
        "exec",
        flags=__future__.annotations.compiler_flag,
    )
    exec(code, function.__globals__, namespace)
    body = {"__slots__": (), method: namespace[method]}
    return type(f"Mutant{cls.__name__}", (cls,), body)


#: name -> (class, method, text in its source, what replaces it)
MUTANTS = {
    "moved is always True": (
        ArchSystem,
        "_property_written",
        "not (type(old) is kind and kind in _SCALARS and old == new)",
        "True",
    ),
    "an equal value of another type has not moved": (
        ArchSystem,
        "_property_written",
        "type(old) is kind and kind in",
        "kind in",
    ),
    "late ports are not owned": (
        Component,
        "add_port",
        "self.system._adopt(port)",
        "None",
    ),
    "undo record skipped while a listener exists": (
        ArchSystem,
        "_property_written",
        "if not self._mutation_listeners:",
        "if True:",
    ),
    "the system jumps the queue of earlier listeners": (
        ArchSystem,
        "_adopt",
        "heard.append(self._property_written)",
        "heard.insert(0, self._property_written)",
    ),
    "system listeners hear in reverse": (
        ArchSystem,
        "_property_written",
        "in self._property_listeners:",
        "in reversed(self._property_listeners):",
    ),
    "structural undo skipped while a listener exists": (
        ArchSystem,
        "detach",
        "if self._mutation_listeners:",
        "if False:",
    ),
    "the log's floor is not kept": (
        ArchSystem,
        "_property_written",
        "self._dirty_floor = log.popleft()[0]",
        "log.popleft()",
    ),
}


class TestTheOracleHasTeeth:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_a_generated_script_catches(self, name):
        cls = MUTANTS[name][0]
        mutant = mutated(*MUTANTS[name])
        role = "component_cls" if cls is Component else "system_cls"

        def caught(script):
            try:
                lockstep(script, lambda: World(**{role: mutant}))
            except AssertionError:
                return True
            return False

        try:
            find(
                scripts,
                caught,
                # the first script that tells them apart will do: no shrinking
                settings=settings(
                    max_examples=3000,
                    deadline=None,
                    database=None,
                    phases=[Phase.generate],
                ),
                random=random.Random(22),
            )
        except NoSuchExample:  # pragma: no cover - the failure message
            pytest.fail(f"no generated script tells the mutant apart: {name}")
