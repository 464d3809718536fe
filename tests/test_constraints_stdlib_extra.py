"""Coverage for the remaining constraint stdlib functions and DSL corners.

``ev`` evaluates through the compiled program and through the reference
interpreter and fails unless the two agree.
"""

import pytest
from reference import evaluate_agreed

from repro.acme import ArchSystem
from repro.constraints import EvalContext, parse_expression
from repro.errors import EvaluationError
from repro.repair.dsl import parse_repair_dsl


def ev(source, system=None, bindings=None):
    system = system or ArchSystem("S")
    return evaluate_agreed(
        parse_expression(source), lambda: EvalContext(system, bindings=bindings)
    )


class TestStdlibFunctions:
    def test_union_preserves_order_and_dedups(self):
        assert ev("union({1, 2}, {2, 3})") == [1, 2, 3]

    def test_intersection(self):
        assert ev("intersection({1, 2, 3}, {2, 3, 4})") == [2, 3]
        assert ev("intersection({1}, {2})") == []

    def test_abs_and_sqrt(self):
        assert ev("abs(-3.5)") == 3.5
        assert ev("sqrt(16)") == 4.0
        with pytest.raises(EvaluationError):
            ev("sqrt(-1)")
        with pytest.raises(EvaluationError):
            ev('abs("x")')

    def test_is_empty(self):
        assert ev("isEmpty({})") is True
        assert ev("isEmpty({1})") is False

    def test_contains(self):
        assert ev("contains({1, 2}, 2)") is True
        assert ev("contains({1, 2}, 5)") is False

    def test_sum_avg_reject_non_numbers(self):
        with pytest.raises(EvaluationError):
            ev('sum({1, "two"})')
        with pytest.raises(EvaluationError):
            ev("avg({})")

    def test_has_property_and_declares_type(self):
        s = ArchSystem("S")
        c = s.new_component("c1", ["ClientT"])
        c.declare_property("load", 1.0, "float")
        assert ev(
            'forall x : ClientT in self.components | hasProperty(x, "load")', s
        )
        assert ev(
            'forall x in self.components | declaresType(x, "ClientT")', s
        )

    def test_method_call_syntax_on_collections(self):
        # receiver form: {1,2,3}.size() routes through the same stdlib
        assert ev("size({1, 2, 3})") == 3

    def test_in_operator_over_select(self):
        s = ArchSystem("S")
        s.new_component("a", ["NodeT"])
        s.new_component("b", ["NodeT"])
        assert ev(
            "(select one x : NodeT in self.components | x.name == \"a\") in "
            "(select x : NodeT in self.components | true)",
            s,
        )


class TestDslCorners:
    def test_bare_return(self):
        doc = parse_repair_dsl("tactic t() : boolean = { return; }")
        from repro.repair.dsl.interp import DslTactic
        from repro.repair import ModelTransaction, RepairContext

        system = ArchSystem("S")
        ctx = RepairContext(system, transaction=ModelTransaction(system).begin())
        assert DslTactic(doc.tactics["t"]).invoke(ctx, []) is False

    def test_nested_foreach(self):
        doc = parse_repair_dsl(
            """
            tactic t() : boolean = {
                let count = 0;
                foreach a in {1, 2} {
                    foreach b in {10, 20, 30} {
                        let count = count + 1;
                    }
                }
                return count == 0;
            }
            """
        )
        # `let` binds per scope; outer count is shadowed, not mutated,
        # so the tactic still sees 0 afterwards (lexical scoping).
        from repro.repair.dsl.interp import DslTactic
        from repro.repair import ModelTransaction, RepairContext

        system = ArchSystem("S")
        ctx = RepairContext(system, transaction=ModelTransaction(system).begin())
        assert DslTactic(doc.tactics["t"]).invoke(ctx, []) is True

    def test_comments_in_dsl(self):
        doc = parse_repair_dsl(
            """
            // a strategy with comments
            strategy s() = {
                /* block comment */
                commit repair;  // trailing
            }
            """
        )
        assert "s" in doc.strategies

    def test_wrong_arity_tactic_call(self):
        from repro.repair.dsl.interp import build_strategies
        from repro.repair import ModelTransaction, RepairContext

        doc = parse_repair_dsl(
            """
            strategy s() = { if (t(1, 2)) { commit repair; } else { abort A; } }
            tactic t(x : int) : boolean = { return true; }
            """
        )
        system = ArchSystem("S")
        ctx = RepairContext(
            system,
            bindings={"__strategy_args__": []},
            transaction=ModelTransaction(system).begin(),
        )
        with pytest.raises(EvaluationError):
            build_strategies(doc)["s"].run(ctx)

    def test_strategy_missing_args(self):
        from repro.repair.dsl.interp import build_strategies
        from repro.repair import ModelTransaction, RepairContext

        doc = parse_repair_dsl("strategy s(x : ClientRoleT) = { commit repair; }")
        system = ArchSystem("S")
        ctx = RepairContext(
            system, bindings={"__strategy_args__": []},
            transaction=ModelTransaction(system).begin(),
        )
        with pytest.raises(EvaluationError):
            build_strategies(doc)["s"].run(ctx)
