"""Unit tests for the constraint language: parsing and evaluation.

``ev`` evaluates through the compiled program — production — and through
the tree-walking reference interpreter, and fails unless the two agree,
so every case here checks production semantics against the oracle.
"""

import pytest
from reference import evaluate_agreed

from repro.acme import ArchSystem
from repro.constraints import (
    ConstraintChecker,
    EvalContext,
    Invariant,
    parse_expression,
)
from repro.errors import ConstraintError, EvaluationError, ParseError


def model():
    """Three clients (one slow) connected to two server groups."""
    s = ArchSystem("S")
    for name, latency in (("c1", 0.5), ("c2", 0.7), ("c3", 5.0)):
        c = s.new_component(name, ["ClientT"])
        c.declare_property("averageLatency", latency, "float")
        c.add_port("req")
    for name, load in (("g1", 2.0), ("g2", 9.0)):
        g = s.new_component(name, ["ServerGroupT"])
        g.declare_property("load", load, "float")
        g.add_port("serve")
    for i, (cli, grp) in enumerate((("c1", "g1"), ("c2", "g1"), ("c3", "g2")), 1):
        link = s.new_connector(f"k{i}", ["LinkT"])
        link.declare_property("bandwidth", 1e6 if cli != "c3" else 5e3, "float")
        link.add_role("client", {"ClientRoleT"})
        link.add_role("group")
        s.attach(s.component(cli).port("req"), link.role("client"))
        s.attach(s.component(grp).port("serve"), link.role("group"))
    return s


def ev(source, system=None, scope=None, bindings=None):
    system = system or model()
    return evaluate_agreed(
        parse_expression(source),
        lambda: EvalContext(system, scope=scope, bindings=bindings),
    )


class TestBasics:
    def test_arithmetic_and_precedence(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9
        assert ev("10 / 4") == 2.5
        assert ev("7 % 3") == 1
        assert ev("-2 + 5") == 3

    def test_comparisons_and_logic(self):
        assert ev("1 < 2 and 2 <= 2") is True
        assert ev("1 > 2 or 3 >= 3") is True
        assert ev("!(1 == 2)") is True
        assert ev("1 != 2") is True

    def test_implies(self):
        assert ev("false -> false") is True
        assert ev("true -> false") is False
        # right associativity: a -> (b -> c)
        assert ev("true -> false -> true") is True

    def test_nil_and_strings(self):
        assert ev("nil == nil") is True
        assert ev('"abc" == "abc"') is True
        assert ev('"abc" != "abd"') is True

    def test_short_circuit(self):
        # the right side would error (division by zero) if evaluated
        assert ev("false and (1 / 0 == 1)") is False
        assert ev("true or (1 / 0 == 1)") is True

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            ev("1 / 0")

    def test_type_errors(self):
        with pytest.raises(EvaluationError):
            ev('1 < "two"')
        with pytest.raises(EvaluationError):
            ev("!5")

    def test_set_literal_and_in(self):
        assert ev("2 in {1, 2, 3}") is True
        assert ev("size({1, 2, 3}) == 3") is True


class TestModelAccess:
    def test_component_property(self):
        assert ev('size(self.components) == 5')

    def test_property_access_chain(self):
        s = model()
        assert ev(
            "exists c : ClientT in self.components | c.averageLatency > 2.0", s
        )

    def test_scope_element_unqualified_properties(self):
        s = model()
        c3 = s.component("c3")
        assert ev("averageLatency > 2.0", s, scope=c3) is True
        assert ev("self.averageLatency > 2.0", s, scope=c3) is True

    def test_bindings(self):
        s = model()
        c3 = s.component("c3")
        assert (
            ev("averageLatency <= maxLatency", s, scope=c3,
               bindings={"maxLatency": 2.0})
            is False
        )

    def test_missing_property_reports_declared(self):
        with pytest.raises(EvaluationError) as err:
            ev("forall c : ClientT in self.components | c.nope > 1")
        assert "nope" in str(err.value)

    def test_connected_and_attached(self):
        s = model()
        ctx_ok = ev(
            "connected(select one c : ClientT in self.components | c.name == \"c1\","
            " select one g : ServerGroupT in self.components | g.name == \"g1\")",
            s,
        )
        assert ctx_ok is True
        assert ev(
            "connected(select one c : ClientT in self.components | c.name == \"c1\","
            " select one g : ServerGroupT in self.components | g.name == \"g2\")",
            s,
        ) is False


class TestQuantifiers:
    def test_forall(self):
        assert ev(
            "forall g : ServerGroupT in self.components | g.load < 100.0"
        ) is True
        assert ev(
            "forall c : ClientT in self.components | c.averageLatency <= 2.0"
        ) is False

    def test_exists(self):
        assert ev("exists g : ServerGroupT in self.components | g.load > 5.0")
        assert not ev("exists g : ServerGroupT in self.components | g.load > 50.0")

    def test_exists_unique(self):
        assert ev(
            "exists unique c : ClientT in self.components | c.averageLatency > 2.0"
        ) is True
        assert ev(
            "exists unique c : ClientT in self.components | c.averageLatency < 2.0"
        ) is False  # two such clients

    def test_type_filter_restricts_domain(self):
        assert ev("size(select x : ClientT in self.components | true) == 3")
        assert ev("size(select x : ServerGroupT in self.components | true) == 2")

    def test_select_returns_elements(self):
        result = ev("select g : ServerGroupT in self.components | g.load > 5.0")
        assert [g.name for g in result] == ["g2"]

    def test_select_one_semantics(self):
        one = ev("select one c : ClientT in self.components | c.averageLatency > 2.0")
        assert one.name == "c3"
        none = ev("select one c : ClientT in self.components | c.averageLatency > 99.0")
        assert none is None

    def test_nested_quantifiers(self):
        # every overloaded group serves some slow client
        assert ev(
            "forall g : ServerGroupT in self.components | g.load <= 6.0 or "
            "(exists c : ClientT in self.components | "
            "connected(g, c) and c.averageLatency > 2.0)"
        ) is True

    def test_quantifier_scoping_is_lexical(self):
        assert ev(
            "size(select c : ClientT in self.components | "
            "exists g : ServerGroupT in self.components | "
            "connected(c, g) and g.load > 5.0) == 1"
        )

    def test_non_boolean_body_rejected(self):
        with pytest.raises(EvaluationError):
            ev("forall c : ClientT in self.components | c.averageLatency")

    def test_non_collection_domain_rejected(self):
        with pytest.raises(EvaluationError):
            ev("forall c : ClientT in 5 | true")


class TestParseErrors:
    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 extra")

    def test_keyword_misuse(self):
        with pytest.raises(ParseError):
            parse_expression("select + 1")

    def test_missing_pipe(self):
        with pytest.raises(ParseError):
            parse_expression("forall x in self.components true")


class TestInvariantsAndChecker:
    def test_paper_invariant_per_role_scope(self):
        s = model()
        for i in (1, 2, 3):
            role = s.connector(f"k{i}").role("client")
            client = s.attached_port(role).component
            role.declare_property(
                "averageLatency", client.get_property("averageLatency"), "float"
            )
        checker = ConstraintChecker(bindings={"maxLatency": 2.0})
        checker.add_source(
            "r", "averageLatency <= maxLatency",
            scope_type="ClientRoleT", repair="fixLatency",
        )
        violations = checker.violations(s)
        assert [v.scope for v in violations] == ["k3.client"]
        assert checker.invariant("r").repair == "fixLatency"

    def test_system_scope_invariant(self):
        checker = ConstraintChecker()
        checker.add_source(
            "allGroupsSane",
            "forall g : ServerGroupT in self.components | g.load >= 0.0",
        )
        assert checker.violations(model()) == []

    def test_evaluation_error_becomes_violation_with_message(self):
        checker = ConstraintChecker()
        checker.add_source("broken", "undefinedName > 1.0")
        results = checker.check_all(model())
        assert len(results) == 1
        assert results[0].violated
        assert "undefinedName" in (results[0].error or "")

    def test_non_boolean_invariant_flagged(self):
        checker = ConstraintChecker()
        checker.add_source("notbool", "1 + 1")
        results = checker.check_all(model())
        assert results[0].violated and "boolean" in results[0].error

    def test_unparseable_invariant_rejected_eagerly(self):
        with pytest.raises(ConstraintError):
            Invariant("bad", "forall |")

    def test_duplicate_invariant_rejected(self):
        checker = ConstraintChecker()
        checker.add_source("x", "true")
        with pytest.raises(ConstraintError):
            checker.add_source("x", "true")
