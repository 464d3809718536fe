"""Unit tests for properties and architectural elements."""

import pytest

from repro.acme import (
    PROPERTY_ABSENT,
    Attachment,
    Component,
    Connector,
    Property,
)
from repro.errors import (
    AttachmentError,
    DuplicateElementError,
    PropertyError,
    UnknownElementError,
)


class TestProperty:
    def test_typed_value_accepted(self):
        p = Property("bandwidth", 10e6, "float")
        assert p.value == 10e6

    def test_type_mismatch_rejected(self):
        with pytest.raises(PropertyError):
            Property("load", "high", "float")

    def test_bool_is_not_a_float(self):
        with pytest.raises(PropertyError):
            Property("x", True, "float")

    def test_int_is_not_a_bool(self):
        with pytest.raises(PropertyError):
            Property("flag", 1, "boolean")

    def test_unknown_type_rejected(self):
        with pytest.raises(PropertyError):
            Property("x", 1, "quaternion")


class TestPropertyBag:
    def test_declare_get_set(self):
        c = Component("c1")
        c.declare_property("load", 0.0, "float")
        assert c.get_property("load") == 0.0
        old = c.set_property("load", 5.0)
        assert old == 0.0
        assert c.get_property("load") == 5.0

    def test_redeclare_rejected(self):
        c = Component("c1")
        c.declare_property("x", 1)
        with pytest.raises(PropertyError):
            c.declare_property("x", 2)

    def test_set_respects_declared_type(self):
        c = Component("c1")
        c.declare_property("load", 0.0, "float")
        with pytest.raises(PropertyError):
            c.set_property("load", "many")

    def test_missing_property(self):
        c = Component("c1")
        with pytest.raises(PropertyError):
            c.get_property("nope")
        assert c.get_property("nope", default=7) == 7

    def test_change_listener(self):
        c = Component("c1")
        seen = []
        c.on_property_change(lambda owner, n, old, new: seen.append((n, old, new)))
        c.declare_property("x", 1)
        c.set_property("x", 2)
        c.remove_property("x")
        # creation reports old=PROPERTY_ABSENT (not None — the undo log
        # needs "did not exist" to differ from "was None"); removal
        # reports new=PROPERTY_ABSENT and returns the last value.
        assert seen == [
            ("x", PROPERTY_ABSENT, 1),
            ("x", 1, 2),
            ("x", 2, PROPERTY_ABSENT),
        ]

    def test_property_names_sorted(self):
        c = Component("c1")
        c.declare_property("zeta", 1)
        c.declare_property("alpha", 2)
        assert c.property_names() == ["alpha", "zeta"]


class TestElements:
    def test_invalid_names_rejected(self):
        for bad in ("", "1abc", "a-b", "a b", "a.b"):
            with pytest.raises(UnknownElementError):
                Component(bad)

    def test_types_declaration(self):
        c = Component("srv", {"ServerT"})
        assert c.declares_type("ServerT")
        assert not c.declares_type("ClientT")

    def test_ports(self):
        c = Component("c1")
        p = c.add_port("request", {"RequestT"})
        assert p.qualified_name == "c1.request"
        assert c.port("request") is p
        assert c.has_port("request")
        with pytest.raises(DuplicateElementError):
            c.add_port("request")
        with pytest.raises(UnknownElementError):
            c.port("nope")

    def test_remove_port(self):
        c = Component("c1")
        c.add_port("p")
        c.remove_port("p")
        assert not c.has_port("p")
        with pytest.raises(UnknownElementError):
            c.remove_port("p")

    def test_roles(self):
        conn = Connector("link")
        r = conn.add_role("client", {"ClientRoleT"})
        assert r.qualified_name == "link.client"
        assert conn.roles == [r]
        with pytest.raises(DuplicateElementError):
            conn.add_role("client")

    def test_attachment_requires_port_and_role(self):
        c = Component("c1")
        conn = Connector("link")
        p = c.add_port("p")
        r = conn.add_role("r")
        att = Attachment(p, r)
        assert att.key == ("c1.p", "link.r")
        with pytest.raises(AttachmentError):
            Attachment(p, p)  # type: ignore[arg-type]

    def test_ports_sorted(self):
        c = Component("c1")
        c.add_port("z")
        c.add_port("a")
        assert [p.name for p in c.ports] == ["a", "z"]


class TestWhatAnElementHolds:
    """An element holds its slots and nothing per listener it does not have."""

    def elements(self):
        comp, conn = Component("c1", {"ServerT"}), Connector("link", ["LinkT"])
        return [comp, comp.add_port("p"), conn, conn.add_role("r")]

    def test_an_undeclared_attribute_is_refused(self):
        for element in self.elements():
            with pytest.raises(AttributeError):
                element.colour = "red"
            assert not hasattr(element, "__dict__")
        comp, port, conn, role = self.elements()
        prop = comp.declare_property("load", 1.0, "float")
        for holder in (Attachment(port, role), prop):
            with pytest.raises(AttributeError):
                holder.colour = "red"

    def test_no_listener_list_until_someone_listens(self):
        for element in self.elements():
            assert element._prop_listeners is None
            element.set_property("x", 1)  # nobody to tell, nothing to allocate
            assert element._prop_listeners is None
            element.on_property_change(lambda *change: None)
            assert len(element._prop_listeners) == 1

    def test_equal_type_ascriptions_are_one_frozen_set(self):
        first = Component("a", {"PoolT", "NodeT"})
        second = Component("b", ["NodeT", "PoolT"])
        assert first.types is second.types == frozenset({"PoolT", "NodeT"})
        assert first.add_port("p").types is Connector("k").types == frozenset()
        with pytest.raises(AttributeError):
            first.types.add("Other")

    def test_the_exact_type_test_decides_what_check_decides(self):
        import numpy as np

        values = [1, 1.5, True, "a", None, [1], float("nan")]
        values += [np.float64(2.0), np.int64(3)]  # subclasses of float, of nothing
        for ptype in ("float", "int", "string", "boolean", "any"):
            for value in values:
                bag = Component("c")
                bag.declare_property("x", None, ptype)
                try:
                    Property("x", None, ptype).check(value)
                except PropertyError:
                    with pytest.raises(PropertyError):
                        bag.set_property("x", value)
                    assert bag.get_property("x") is None
                else:
                    bag.set_property("x", value)
                    assert bag.get_property("x") is value


class TestElementNames:
    @staticmethod
    def accepted_before(name):
        """``_check_name``'s test at d45de41: a generator over the characters."""
        ok = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
        return not (not name or name[0].isdigit() or any(ch not in ok for ch in name))

    def accepted(self, name):
        try:
            return Component(name).name == name
        except UnknownElementError:
            return False

    def test_same_accept_and_reject_set(self):
        alphabet = [chr(code) for code in range(0x250)]
        alphabet += ["٣", "²", "ª", "Ⅷ", "𝐚", "\ud800", "名"]
        for first in alphabet:
            assert self.accepted(first) == self.accepted_before(first), repr(first)
            for rest in ("a", "_", "7", "é", " "):
                for name in (first + rest, rest + first, "ab" + first + "cd"):
                    assert self.accepted(name) == self.accepted_before(name), repr(name)
        for name in ("T0", "route_T17", "_", "__init__", "class", "a" * 500):
            assert self.accepted(name) and self.accepted_before(name)
        assert not self.accepted("") and not self.accepted(None)
