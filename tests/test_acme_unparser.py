"""``unparse_system``: the Acme text of a system built with the Python API.

The differential suites compare models by this text, so these tests pin
how each kind of member and property value is written.  Properties are
written in name order; one whose value is ``None`` is left out.
"""

from repro.acme import ArchSystem, Family, unparse_system


class TestUnparseSystem:
    def test_literals(self):
        system = ArchSystem("S")
        a = system.new_component("a")
        a.declare_property("x", -2.5, "float")
        a.declare_property("n", 3, "int")
        a.declare_property("on", False, "boolean")
        a.declare_property("s", "hi", "string")
        a.declare_property("free", 7)
        a.declare_property("unset", None, "float")
        assert unparse_system(system) == "\n".join([
            "System S = {",
            "    Component a = {",
            "        Property free = 7;",
            "        Property n : int = 3;",
            "        Property on : boolean = false;",
            '        Property s : string = "hi";',
            "        Property x : float = -2.5;",
            "    };",
            "};",
        ])

    def test_untyped_and_bodyless_elements(self):
        system = ArchSystem("S")
        system.new_component("a")
        system.new_connector("b")
        assert unparse_system(system) == "\n".join([
            "System S = {",
            "    Component a;",
            "    Connector b;",
            "};",
        ])

    def test_family_defaults_and_structure(self):
        fam = Family("ClientServerFam")
        fam.component_type("ClientT").declare_property("averageLatency", "float", 0.0)
        fam.component_type("ServerGroupT").declare_property(
            "load", "float", 0.0
        ).declare_property("replication", "int", 0)
        fam.connector_type("LinkT").declare_property("bandwidth", "float", 0.0)
        system = ArchSystem("Demo", family=fam.name)
        client = system.new_component("c1", ["ClientT"])
        fam.initialize(client)
        client.set_property("averageLatency", 0.5)
        group = system.new_component("grp1", ["ServerGroupT"])
        fam.initialize(group)
        group.set_property("replication", 3)
        link = system.new_connector("link1", ["LinkT"])
        fam.initialize(link)
        system.attach(client.add_port("req"), link.add_role("client"))
        system.attach(group.add_port("serve"), link.add_role("group"))
        assert unparse_system(system) == "\n".join([
            "System Demo : ClientServerFam = {",
            "    Component c1 : ClientT = {",
            "        Port req;",
            "        Property averageLatency : float = 0.5;",
            "    };",
            "    Component grp1 : ServerGroupT = {",
            "        Port serve;",
            "        Property load : float = 0.0;",
            "        Property replication : int = 3;",
            "    };",
            "    Connector link1 : LinkT = {",
            "        Role client;",
            "        Role group;",
            "        Property bandwidth : float = 0.0;",
            "    };",
            "    Attachment c1.req to link1.client;",
            "    Attachment grp1.serve to link1.group;",
            "};",
        ])
