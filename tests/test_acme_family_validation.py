"""Unit tests for families (styles) and structural validation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.acme import ArchSystem, ElementType, Family, validate_system
from repro.errors import DuplicateElementError, TypeViolationError, UnknownElementError


def make_family():
    fam = Family("ClientServerFam")
    fam.component_type("ClientT").declare_property(
        "averageLatency", "float", 0.0
    )
    fam.component_type("ServerGroupT").declare_property(
        "load", "float", 0.0
    ).declare_property("replication", "int", 0)
    fam.connector_type("LinkT").declare_property("bandwidth", "float", 0.0)
    fam.role_type("ClientRoleT")
    return fam


class TestFamily:
    def test_types_and_lookup(self):
        fam = make_family()
        assert fam.has_type("ClientT")
        assert fam.type("LinkT").kind == "connector"
        with pytest.raises(UnknownElementError):
            fam.type("NopeT")

    def test_duplicate_type_rejected(self):
        fam = make_family()
        with pytest.raises(DuplicateElementError):
            fam.component_type("ClientT")

    def test_bad_kind_rejected(self):
        with pytest.raises(TypeViolationError):
            ElementType("X", "widget")

    def test_initialize_applies_defaults(self):
        fam = make_family()
        s = ArchSystem("S", family="ClientServerFam")
        c = s.new_component("c1", ["ClientT"])
        fam.initialize(c)
        assert c.get_property("averageLatency") == 0.0

    def test_initialize_does_not_override(self):
        fam = make_family()
        s = ArchSystem("S")
        c = s.new_component("c1", ["ClientT"])
        c.declare_property("averageLatency", 9.0, "float")
        fam.initialize(c)
        assert c.get_property("averageLatency") == 9.0


class TestValidation:
    def _valid_system(self, fam):
        s = ArchSystem("S", family=fam.name)
        c = s.new_component("c1", ["ClientT"])
        fam.initialize(c)
        g = s.new_component("g1", ["ServerGroupT"])
        fam.initialize(g)
        c.add_port("req")
        g.add_port("serve")
        link = s.new_connector("k1", ["LinkT"])
        fam.initialize(link)
        link.add_role("client", {"ClientRoleT"})
        link.add_role("group")
        s.attach(c.port("req"), link.role("client"))
        s.attach(g.port("serve"), link.role("group"))
        return s

    def test_valid_system_no_issues(self):
        fam = make_family()
        s = self._valid_system(fam)
        assert validate_system(s, fam) == []

    def test_unknown_type_reported(self):
        fam = make_family()
        s = self._valid_system(fam)
        s.new_component("weird", ["MysteryT"])
        issues = validate_system(s, fam)
        assert any("MysteryT" in str(i) for i in issues)

    def test_missing_required_property(self):
        fam = Family("F")
        fam.component_type("NodeT").declare_property(
            "capacity", "float", None, required=True
        )
        s = ArchSystem("S", family="F")
        s.new_component("n1", ["NodeT"])
        issues = validate_system(s, fam)
        assert any("capacity" in str(i) for i in issues)

    def test_kind_mismatch_reported(self):
        fam = make_family()
        s = ArchSystem("S", family=fam.name)
        s.new_connector("bad", ["ClientT"])  # component type on a connector
        issues = validate_system(s, fam)
        assert any("is a connector" in str(i) for i in issues)

    def test_dangling_role_reported(self):
        fam = make_family()
        s = self._valid_system(fam)
        link2 = s.new_connector("k2", ["LinkT"])
        link2.add_role("client")
        issues = validate_system(s, fam)
        assert any("not attached" in str(i) for i in issues)

    def test_custom_structural_rule(self):
        fam = make_family()
        fam.type("ServerGroupT").add_rule(
            lambda system, el: (
                [] if el.get_property("replication", 0) >= 1
                else [f"group {el.name} has no replicas"]
            )
        )
        s = self._valid_system(fam)
        issues = validate_system(s, fam)
        assert any("no replicas" in str(i) for i in issues)
        s.component("g1").set_property("replication", 3)
        assert validate_system(s, fam) == []

    def test_family_name_mismatch(self):
        fam = make_family()
        s = ArchSystem("S", family="OtherFam")
        issues = validate_system(s, fam)
        assert any("declares family" in str(i) for i in issues)


def test_import_repro_leaves_the_acme_text_parser_out():
    """Models are built with the Python API; no Acme text front end is
    loaded with the package."""
    root = Path(__file__).parent.parent
    code = "import sys, repro; print('repro.acme.parser' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
