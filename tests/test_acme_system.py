"""Unit tests for the architectural system graph."""

import pytest

from repro.acme import ArchSystem, Component, unparse_system
from repro.errors import AttachmentError, DuplicateElementError, UnknownElementError
from repro.repair.transactions import ModelTransaction


def client_server_model():
    """c1, c2 -- link1 -- grp (the paper's shape, miniature)."""
    s = ArchSystem("S", family="ClientServerFam")
    c1 = s.new_component("c1", ["ClientT"])
    c2 = s.new_component("c2", ["ClientT"])
    grp = s.new_component("grp", ["ServerGroupT"])
    c1.add_port("req")
    c2.add_port("req")
    grp.add_port("serve")
    link1 = s.new_connector("link1", ["LinkT"])
    link1.add_role("client")
    link1.add_role("group")
    link2 = s.new_connector("link2", ["LinkT"])
    link2.add_role("client")
    link2.add_role("group")
    s.attach(c1.port("req"), link1.role("client"))
    s.attach(grp.port("serve"), link1.role("group"))
    s.attach(c2.port("req"), link2.role("client"))
    s.attach(grp.port("serve"), link2.role("group"))
    return s


class TestStructure:
    def test_duplicate_names_rejected_across_kinds(self):
        s = ArchSystem("S")
        s.new_component("x")
        with pytest.raises(DuplicateElementError):
            s.new_component("x")
        with pytest.raises(DuplicateElementError):
            s.new_connector("x")

    def test_lookup(self):
        s = client_server_model()
        assert s.component("c1").name == "c1"
        assert s.connector("link1").name == "link1"
        with pytest.raises(UnknownElementError):
            s.component("link1")

    def test_components_of_type(self):
        s = client_server_model()
        assert [c.name for c in s.components_of_type("ClientT")] == ["c1", "c2"]
        assert [c.name for c in s.components_of_type("ServerGroupT")] == ["grp"]

    def test_attach_validations(self):
        s = ArchSystem("S")
        c = s.new_component("c")
        p = c.add_port("p")
        conn = s.new_connector("k")
        r = conn.add_role("r")
        s.attach(p, r)
        with pytest.raises(AttachmentError):
            s.attach(p, r)  # duplicate
        outside = Component("out")
        po = outside.add_port("p")
        with pytest.raises(AttachmentError):
            s.attach(po, r)

    def test_role_single_attachment(self):
        s = ArchSystem("S")
        a = s.new_component("a")
        b = s.new_component("b")
        pa, pb = a.add_port("p"), b.add_port("p")
        conn = s.new_connector("k")
        r = conn.add_role("r")
        s.attach(pa, r)
        with pytest.raises(AttachmentError):
            s.attach(pb, r)

    def test_detach(self):
        s = client_server_model()
        c1 = s.component("c1")
        link1 = s.connector("link1")
        s.detach(c1.port("req"), link1.role("client"))
        assert s.attached_port(link1.role("client")) is None
        with pytest.raises(AttachmentError):
            s.detach(c1.port("req"), link1.role("client"))

    def test_remove_component_cascades_attachments(self):
        s = client_server_model()
        s.remove_component("c1")
        assert not s.has_component("c1")
        assert s.attached_port(s.connector("link1").role("client")) is None
        # grp attachment to link1 still present
        assert s.attached_port(s.connector("link1").role("group")) is not None

    def test_remove_connector_cascades(self):
        s = client_server_model()
        s.remove_connector("link1")
        assert not s.has_connector("link1")
        assert len(s.attachments) == 2

    @pytest.mark.parametrize("removed", ["port", "role"])
    def test_remove_port_or_role_detaches_and_abort_restores(self, removed):
        s = ArchSystem("S")
        c = s.new_component("c")
        c.add_port("p")
        k = s.new_connector("k")
        k.add_role("r")
        s.attach(c.port("p"), k.role("r"))
        before = unparse_system(s)
        txn = ModelTransaction(s).begin()
        if removed == "port":
            c.remove_port("p")
        else:
            k.remove_role("r")
        assert s.attachments == []
        txn.abort()
        assert c.has_port("p") and k.has_role("r")
        assert s.is_attached(c.port("p"), k.role("r"))
        assert unparse_system(s) == before


def shared_port_model():
    """``grp.serve`` attached to two roles, the later key first."""
    s = ArchSystem("S")
    c1 = s.new_component("c1")
    grp = s.new_component("grp")
    c1.add_port("req")
    grp.add_port("serve")
    for name in ("link1", "link2"):
        link = s.new_connector(name)
        link.add_role("client")
        link.add_role("group")
    s.attach(c1.port("req"), s.connector("link1").role("client"))
    s.attach(grp.port("serve"), s.connector("link2").role("group"))
    s.attach(grp.port("serve"), s.connector("link1").role("group"))
    s.attach(c1.port("req"), s.connector("link2").role("client"))
    return s


class TestAbortedRemoval:
    """An aborted ``remove_component`` / ``remove_connector`` puts each
    dropped attachment back once, in key order, after the ones it kept;
    ``attached_role`` answers from that order."""

    @pytest.mark.parametrize(
        "removed, order, role",
        [
            (
                "component grp",
                [
                    ("c1.req", "link1.client"),
                    ("c1.req", "link2.client"),
                    ("grp.serve", "link1.group"),
                    ("grp.serve", "link2.group"),
                ],
                "link1.group",
            ),
            (
                "connector link2",
                [
                    ("c1.req", "link1.client"),
                    ("grp.serve", "link1.group"),
                    ("c1.req", "link2.client"),
                    ("grp.serve", "link2.group"),
                ],
                "link1.group",
            ),
            (
                "connector link1",
                [
                    ("grp.serve", "link2.group"),
                    ("c1.req", "link2.client"),
                    ("c1.req", "link1.client"),
                    ("grp.serve", "link1.group"),
                ],
                "link2.group",
            ),
        ],
    )
    def test_abort_rebinds_each_dropped_attachment_once(
        self, removed, order, role, monkeypatch
    ):
        s = shared_port_model()
        kind, name = removed.split()
        dropped = len(s.attachments) - 2
        bound = []
        bind = ArchSystem._bind

        def counted(system, att):
            bound.append(att.key)
            bind(system, att)

        txn = ModelTransaction(s).begin()
        getattr(s, f"remove_{kind}")(name)
        assert len(s.attachments) == 2
        monkeypatch.setattr(ArchSystem, "_bind", counted)
        txn.abort()
        assert list(s._attachments) == order
        assert s.attached_role(s.component("grp").port("serve")).qualified_name == role
        assert s.attached_port(s.connector("link1").role("group")).qualified_name == (
            "grp.serve"
        )
        assert sorted(bound) == sorted(order[-dropped:])


class TestQueries:
    def test_connected(self):
        s = client_server_model()
        c1, c2, grp = s.component("c1"), s.component("c2"), s.component("grp")
        assert s.connected(c1, grp)
        assert s.connected(grp, c2)
        assert not s.connected(c1, c2)
        assert not s.connected(c1, c1)

    def test_connectors_of_and_components_on(self):
        s = client_server_model()
        grp = s.component("grp")
        assert [c.name for c in s.connectors_of(grp)] == ["link1", "link2"]
        link1 = s.connector("link1")
        assert [c.name for c in s.components_on(link1)] == ["c1", "grp"]

    def test_neighbors(self):
        s = client_server_model()
        grp = s.component("grp")
        assert [c.name for c in s.neighbors(grp)] == ["c1", "c2"]

    def test_attached_role_and_port(self):
        s = client_server_model()
        c1 = s.component("c1")
        link1 = s.connector("link1")
        assert s.attached_role(c1.port("req")) is link1.role("client")
        assert s.attached_port(link1.role("client")) is c1.port("req")

    def test_is_attached_order_insensitive(self):
        s = client_server_model()
        p = s.component("c1").port("req")
        r = s.connector("link1").role("client")
        assert s.is_attached(p, r)
        assert s.is_attached(r, p)


class TestObservation:
    def test_mutations_carry_working_undo(self):
        s = ArchSystem("S")
        undos = []
        s.on_mutation(lambda desc, undo: undos.append((desc, undo)))
        s.new_component("c")
        assert "add component c" in undos[-1][0]
        undos[-1][1]()  # undo the add
        assert not s.has_component("c")

    def test_property_change_forwarded_with_undo(self):
        s = ArchSystem("S")
        c = s.new_component("c")
        changes = []
        s.on_property_change(lambda el, n, old, new: changes.append((el.name, n, old, new)))
        undos = []
        s.on_mutation(lambda desc, undo: undos.append(undo))
        c.set_property("load", 3)
        c.set_property("load", 9)
        assert ("c", "load", 3, 9) in changes
        undos[-1]()  # undo the 3 -> 9 change
        assert c.get_property("load") == 3

    def test_port_property_changes_forwarded(self):
        s = ArchSystem("S")
        c = s.new_component("c")
        p = c.add_port("pp")
        seen = []
        s.on_property_change(lambda el, n, old, new: seen.append(el.qualified_name))
        p.set_property("latency", 1.0)
        assert seen == ["c.pp"]

    def test_detach_undo_restores(self):
        s = client_server_model()
        undos = []
        s.on_mutation(lambda d, u: undos.append(u))
        c1 = s.component("c1")
        link1 = s.connector("link1")
        s.detach(c1.port("req"), link1.role("client"))
        undos[-1]()
        assert s.is_attached(c1.port("req"), link1.role("client"))


class TestOwnership:
    """What the per-element ``forward`` closure did implicitly, now that
    the ``system`` back-pointer is the forwarding route."""

    def test_a_component_restored_by_abort_still_dirties_its_system(self):
        s = client_server_model()
        grp = s.component("grp")
        txn = ModelTransaction(s).begin()
        s.remove_component("grp")
        assert grp.system is s  # removal does not disown
        txn.abort()  # puts it back without adopting it again
        assert s.component("grp") is grp and len(s.attachments) == 4
        before = s.epoch
        grp.set_property("load", 7)
        grp.port("serve").set_property("latency", 0.5)
        assert s.epoch == before + 2 and grp.dirty_epoch == before + 1
        assert s.dirty_elements_since(before) == [grp.port("serve"), grp]

    def test_a_listener_registered_before_adoption_keeps_its_place(self):
        s = ArchSystem("S")
        early, late = Component("early"), Component("late")
        heard = []

        def listener(tag):
            return lambda el, n, old, new: heard.append((tag, s.epoch))

        early.on_property_change(listener("before"))
        s.add_component(early)
        s.add_component(late)
        early.on_property_change(listener("after"))
        late.on_property_change(listener("after"))
        s.on_property_change(listener("system"))
        base = s.epoch
        early.set_property("load", 1)
        assert heard == [("before", base), ("system", base + 1), ("after", base + 1)]
        del heard[:]
        late.set_property("load", 1)
        assert heard == [("system", base + 2), ("after", base + 2)]

    def test_adopting_again_does_not_double_the_forwarding(self):
        # the closures doubled up: remove + add_component of the same
        # object (client_server's removeServer undo) counted every later
        # write twice
        s = ArchSystem("S")
        c = s.new_component("c")
        c.add_port("p")
        c.on_property_change(lambda *change: None)  # a listener list to double up in
        seen = []
        s.on_property_change(lambda el, n, old, new: seen.append(el.qualified_name))
        s._silent_remove_component("c")
        s.add_component(c)
        before = s.epoch
        c.set_property("load", 1)
        c.port("p").set_property("load", 1)
        assert s.epoch == before + 2 and seen == ["c", "c.p"]

    def test_an_element_has_one_owner_the_latest(self):
        a, b = ArchSystem("A"), ArchSystem("B")
        bare, heard = a.new_component("bare"), a.new_component("heard")
        heard.on_property_change(lambda *change: None)
        for comp in (bare, heard):
            a._silent_remove_component(comp.name)
            b.add_component(comp)
        before = a.epoch
        bare.set_property("load", 1)
        heard.set_property("load", 1)
        assert a.epoch == before and b.dirty_elements_since(0) == [heard, bare]

    def test_nobody_listening_no_undo_built(self):
        s = client_server_model()
        port, role = s.component("c1").port("req"), s.connector("link1").role("client")
        s.detach(port, role)
        att = s.attach(port, role)  # no listener: no description, no closure
        undos = []
        s.on_mutation(lambda desc, undo: undos.append((desc, undo)))
        s.detach(port, role)
        assert [desc for desc, _ in undos] == [f"detach {att}"]
        undos[-1][1]()
        assert s.is_attached(port, role)
