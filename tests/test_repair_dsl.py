"""Unit tests for the repair DSL: parsing and interpretation.

Uses the paper's Figure 5 text from the client/server style plus small
synthetic strategies with stub runtime views.
"""

import pytest

from repro.errors import ParseError, RepairAborted
from repro.repair import ModelTransaction, RepairContext
from repro.repair.context import RuntimeView
from repro.repair.dsl import parse_repair_dsl
from repro.repair.dsl.interp import build_strategies
from repro.styles import (
    FIGURE5_DSL,
    build_client_server_model,
    style_operators,
)


class StubRuntime(RuntimeView):
    """Configurable runtime answers for repair-time queries."""

    def __init__(self, spare=None, bandwidths=None):
        self.spare = spare
        self.bandwidths = bandwidths or {}
        self.find_server_calls = []

    def find_server(self, client_name, bw_thresh):
        self.find_server_calls.append((client_name, bw_thresh))
        return self.spare

    def bandwidth_between(self, client_name, group_name):
        return self.bandwidths.get((client_name, group_name), 1e6)


def make_model():
    return build_client_server_model(
        "S",
        assignments={"C1": "SG1", "C2": "SG1", "C3": "SG1"},
        groups={"SG1": ["S1", "S2"], "SG2": ["S5"]},
    )


def make_ctx(system, runtime=None, bindings=None, scope_role=None):
    txn = ModelTransaction(system).begin()
    b = {"maxLatency": 2.0, "maxServerLoad": 6.0, "minBandwidth": 10e3}
    b.update(bindings or {})
    if scope_role is not None:
        b["__strategy_args__"] = [scope_role]
    ctx = RepairContext(
        system,
        runtime=runtime or StubRuntime(),
        bindings=b,
        functions=style_operators(lambda: 0.0),
        transaction=txn,
    )
    return ctx, txn


class TestParsing:
    def test_figure5_parses(self):
        doc = parse_repair_dsl(FIGURE5_DSL)
        assert set(doc.strategies) == {"fixLatency"}
        assert set(doc.tactics) == {"fixServerLoad", "fixBandwidth"}
        assert len(doc.invariants) == 1
        inv = doc.invariants[0]
        assert inv.name == "r"
        assert inv.strategy == "fixLatency"
        assert inv.expression == "averageLatency <= maxLatency"

    def test_params_with_set_types(self):
        doc = parse_repair_dsl(
            "tactic t(x : set{ServerGroupT}) : boolean = { return true; }"
        )
        assert doc.tactics["t"].params[0].type_name == "ServerGroupT"

    def test_else_if_chain(self):
        doc = parse_repair_dsl(
            "strategy s() = { if (true) { commit repair; } "
            "else if (false) { abort A; } else { abort B; } }"
        )
        body = doc.strategies["s"].body
        assert body[0].else_block is not None

    def test_duplicate_strategy_rejected(self):
        with pytest.raises(ParseError):
            parse_repair_dsl("strategy s() = {} strategy s() = {}")

    def test_missing_arrow_in_invariant(self):
        with pytest.raises(ParseError):
            parse_repair_dsl("invariant r : a <= b;")

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_repair_dsl("strategy s() = { jump high; }")


class TestFigure5Semantics:
    def _role_of(self, system, client):
        return system.connector(f"link_{client}").role("client")

    def test_overloaded_group_triggers_add_server(self):
        system = make_model()
        system.component("SG1").set_property("load", 10.0)  # > maxServerLoad
        runtime = StubRuntime(spare="S9")
        ctx, txn = make_ctx(system, runtime, scope_role=self._role_of(system, "C3"))
        strategies = build_strategies(parse_repair_dsl(FIGURE5_DSL))
        outcome = strategies["fixLatency"].run(ctx)
        assert outcome.committed
        assert outcome.tactic_applied == "fixServerLoad"
        assert [i.op for i in ctx.intents] == ["addServer"]
        assert ctx.intents[0].args["server"] == "S9"
        assert ctx.intents[0].args["client"] == "C3"
        # model reflects the recruit
        assert system.component("SG1").get_property("replication") == 3
        assert system.component("SG1").representation.has_component("S9")

    def test_no_spare_falls_through_to_bandwidth_move(self):
        system = make_model()
        system.component("SG1").set_property("load", 10.0)
        role = self._role_of(system, "C3")
        role.set_property("bandwidth", 5e3)  # below minBandwidth
        runtime = StubRuntime(spare=None, bandwidths={("C3", "SG2"): 3e6})
        ctx, txn = make_ctx(system, runtime, scope_role=role)
        strategies = build_strategies(parse_repair_dsl(FIGURE5_DSL))
        outcome = strategies["fixLatency"].run(ctx)
        assert outcome.committed
        assert outcome.tactics_tried == ["fixServerLoad", "fixBandwidth"]
        assert outcome.tactic_applied == "fixBandwidth"
        assert [i.op for i in ctx.intents] == ["moveClient"]
        assert ctx.intents[0].args == {"client": "C3", "frm": "SG1", "to": "SG2"}
        # model reflects the move, and the failed addServer left no residue
        grp_role = system.connector("link_C3").role("group")
        assert system.attached_port(grp_role).component.name == "SG2"
        assert system.component("SG1").get_property("replication") == 2

    def test_bandwidth_ok_and_load_ok_aborts_model_error(self):
        system = make_model()  # load 0, bandwidth default high
        ctx, txn = make_ctx(system, scope_role=self._role_of(system, "C1"))
        strategies = build_strategies(parse_repair_dsl(FIGURE5_DSL))
        with pytest.raises(RepairAborted) as err:
            strategies["fixLatency"].run(ctx)
        assert err.value.reason == "ModelError"

    def test_low_bandwidth_no_group_aborts_no_server_group_found(self):
        system = make_model()
        role = self._role_of(system, "C3")
        role.set_property("bandwidth", 1e3)
        runtime = StubRuntime(spare=None, bandwidths={("C3", "SG2"): 1e3})
        ctx, txn = make_ctx(system, runtime, scope_role=role)
        strategies = build_strategies(parse_repair_dsl(FIGURE5_DSL))
        with pytest.raises(RepairAborted) as err:
            strategies["fixLatency"].run(ctx)
        assert err.value.reason == "NoServerGroupFound"

    def test_strategy_resolves_bad_client_from_role(self):
        system = make_model()
        system.component("SG1").set_property("load", 10.0)
        runtime = StubRuntime(spare="S9")
        ctx, txn = make_ctx(system, runtime, scope_role=self._role_of(system, "C2"))
        build_strategies(parse_repair_dsl(FIGURE5_DSL))["fixLatency"].run(ctx)
        assert runtime.find_server_calls[0][0] == "C2"


class TestStatementSemantics:
    def test_foreach_iterates(self):
        system = make_model()
        for g in ("SG1", "SG2"):
            system.component(g).set_property("load", 10.0)
        runtime = StubRuntime(spare="S9")

        # give SG2 a client so both groups are 'connected' to some client
        doc = parse_repair_dsl(
            """
            strategy s(badRole : ClientRoleT) = {
                if (t()) { commit repair; } else { abort ModelError; }
            }
            tactic t() : boolean = {
                let gs : set{ServerGroupT} =
                    select g : ServerGroupT in self.components | g.load > 6.0;
                foreach g in gs { g.removeServer(); }
                return size(gs) > 0;
            }
            """
        )
        ctx, txn = make_ctx(
            system, runtime,
            scope_role=system.connector("link_C1").role("client"),
        )
        outcome = build_strategies(doc)["s"].run(ctx)
        assert outcome.committed
        assert sorted(i.args["group"] for i in ctx.intents) == ["SG1", "SG2"]

    def test_let_binding_visible_later(self):
        doc = parse_repair_dsl(
            """
            strategy s(x : ClientRoleT) = {
                let a = 1 + 1;
                let b = a * 3;
                if (b == 6) { commit repair; } else { abort Bad; }
            }
            """
        )
        system = make_model()
        ctx, txn = make_ctx(
            system, scope_role=system.connector("link_C1").role("client")
        )
        assert build_strategies(doc)["s"].run(ctx).committed

    def test_tactic_falling_off_end_is_failure(self):
        doc = parse_repair_dsl(
            """
            strategy s(x : ClientRoleT) = {
                if (nothing()) { commit repair; } else { abort GaveUp; }
            }
            tactic nothing() : boolean = { let a = 1; }
            """
        )
        system = make_model()
        ctx, txn = make_ctx(
            system, scope_role=system.connector("link_C1").role("client")
        )
        with pytest.raises(RepairAborted) as err:
            build_strategies(doc)["s"].run(ctx)
        assert err.value.reason == "GaveUp"

    def test_failed_tactic_model_edits_rolled_back(self):
        doc = parse_repair_dsl(
            """
            strategy s(x : ClientRoleT) = {
                if (half()) { commit repair; } else { abort Nope; }
            }
            tactic half() : boolean = {
                let g : ServerGroupT =
                    select one g : ServerGroupT in self.components | g.name == "SG1";
                g.removeServer();
                return false;
            }
            """
        )
        system = make_model()
        before = system.component("SG1").get_property("replication")
        ctx, txn = make_ctx(
            system, scope_role=system.connector("link_C1").role("client")
        )
        with pytest.raises(RepairAborted):
            build_strategies(doc)["s"].run(ctx)
        assert system.component("SG1").get_property("replication") == before
        assert ctx.intents == []  # intent rolled back with the savepoint


class TestParserPositions:
    """The parser stamps line/column on declarations, statements, and
    errors — the anchors ``repro lint`` findings hang off."""

    SOURCE = (
        "strategy s(x : PoolT) = {\n"
        "    if (t(x)) { commit repair; } else { abort Nope; }\n"
        "}\n"
        "tactic t(pool : PoolT) : boolean = {\n"
        "    pool.grow(1);\n"
        "    return true;\n"
        "}\n"
        "invariant q : load <= maxLoad ! -> s(q);\n"
    )

    def test_declarations_carry_keyword_positions(self):
        doc = parse_repair_dsl(self.SOURCE)
        assert (doc.strategies["s"].line, doc.strategies["s"].column) == (1, 1)
        assert (doc.tactics["t"].line, doc.tactics["t"].column) == (4, 1)
        inv = doc.invariants[0]
        assert (inv.line, inv.column) == (8, 1)

    def test_statements_carry_first_token_positions(self):
        doc = parse_repair_dsl(self.SOURCE)
        if_stmt = doc.strategies["s"].body[0]
        assert (if_stmt.line, if_stmt.column) == (2, 5)
        commit = if_stmt.then_block[0]
        assert commit.line == 2
        expr_stmt, ret_stmt = doc.tactics["t"].body
        assert (expr_stmt.line, expr_stmt.column) == (5, 5)
        assert (ret_stmt.line, ret_stmt.column) == (6, 5)

    def test_error_inside_declaration_names_it(self):
        bad = "tactic bad(pool : PoolT) : boolean = { pool.grow(1) }"
        with pytest.raises(ParseError) as excinfo:
            parse_repair_dsl(bad)
        exc = excinfo.value
        assert "in tactic 'bad':" in str(exc)
        assert "(line 1, column" in str(exc)
        assert exc.bare_message.startswith("in tactic 'bad':")
        assert exc.line == 1 and exc.column > 1

    def test_toplevel_error_format_unchanged(self):
        with pytest.raises(ParseError) as excinfo:
            parse_repair_dsl("widget w() = {}")
        message = str(excinfo.value)
        assert "expected strategy/tactic/invariant" in message
        assert "(line 1, column 1)" in message
