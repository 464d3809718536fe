"""Representations: sub-architectures inside components (paper Figure 2).

The paper's server group "consists of a set of replicated servers"; in
Acme this is a component *representation*.  These tests build nested
systems with the Python API and check what the model and its rendered
text (``unparse_system``) show of them, for a hand-built system and for
the live experiment model's server groups.
"""

from repro.acme import ArchSystem, unparse_system
from repro.styles import build_client_server_model


def nested_system():
    """``grp1 : ServerGroupT`` with port ``serve``, ``replication = 2``
    and a representation holding servers ``s1`` (active) and ``s2``."""
    system = ArchSystem("S")
    group = system.new_component("grp1", ["ServerGroupT"])
    group.add_port("serve")
    group.declare_property("replication", 2, "int")
    rep = ArchSystem("grp1_rep")
    rep.new_component("s1", ["ServerT"]).declare_property("active", True, "boolean")
    rep.new_component("s2", ["ServerT"])
    group.representation = rep
    return system


class TestRepresentation:
    def test_nested_components(self):
        rep = nested_system().component("grp1").representation
        assert rep is not None
        assert rep.name == "grp1_rep"
        assert [c.name for c in rep.components] == ["s1", "s2"]
        assert rep.component("s1").get_property("active") is True

    def test_outer_structure_unaffected(self):
        system = nested_system()
        group = system.component("grp1")
        assert [c.name for c in system.components] == ["grp1"]
        assert not system.has_component("s1")
        assert group.has_port("serve")
        assert group.get_property("replication") == 2

    def test_representation_may_hold_connectors_and_attachments(self):
        system = ArchSystem("S")
        rep = ArchSystem("outer_rep")
        port = rep.new_component("a").add_port("p")
        role = rep.new_connector("k").add_role("r")
        rep.attach(port, role)
        system.new_component("outer").representation = rep
        inner = system.component("outer").representation
        assert inner.is_attached(inner.component("a").port("p"),
                                 inner.connector("k").role("r"))
        assert system.attachments == []
        lines = unparse_system(system).splitlines()
        assert " " * 12 + "Attachment a.p to k.r;" in lines

    def test_nested_text(self):
        assert unparse_system(nested_system()) == "\n".join([
            "System S = {",
            "    Component grp1 : ServerGroupT = {",
            "        Port serve;",
            "        Property replication : int = 2;",
            "        Representation = {",
            "            Component s1 : ServerT = {",
            "                Property active : boolean = true;",
            "            };",
            "            Component s2 : ServerT;",
            "        };",
            "    };",
            "};",
        ])

    def test_empty_representation_is_rendered(self):
        system = ArchSystem("S")
        system.new_component("g").representation = ArchSystem("g_rep")
        assert unparse_system(system) == "\n".join([
            "System S = {",
            "    Component g = {",
            "        Representation = {",
            "        };",
            "    };",
            "};",
        ])


class TestClientServerExport:
    GROUPS = {"SG1": ["S1", "S2", "S3"], "SG2": ["S5", "S6"]}

    def model(self):
        return build_client_server_model(
            "GridModel",
            assignments={"C1": "SG1", "C2": "SG1", "C3": "SG2"},
            groups=self.GROUPS,
        )

    def test_groups_hold_their_replicated_servers(self):
        model = self.model()
        for group, servers in self.GROUPS.items():
            rep = model.component(group).representation
            assert [c.name for c in rep.components] == servers
            assert model.component(group).get_property("replication") == len(servers)
            assert all(s.get_property("group") == group for s in rep.components)
        assert not any(model.has_component(s) for s in ("S1", "S5"))

    def test_text_nests_each_group_representation(self):
        """Every server appears inside its own group's block, one level
        deeper than the group, and every attachment is listed."""
        model = self.model()
        lines = unparse_system(model).splitlines()
        for group, servers in self.GROUPS.items():
            start = lines.index(f"    Component {group} : ServerGroupT = {{")
            end = lines.index("    };", start)
            block = lines[start:end]
            assert "        Representation = {" in block
            inner = [line.strip() for line in block if line.startswith(" " * 12 + "C")]
            assert inner == [f"Component {s} : ServerT = {{" for s in servers]
        assert [line.strip() for line in lines if "Attachment" in line] == [
            f"Attachment {port} to {role};" for port, role in
            (a.key for a in model.attachments)
        ]
