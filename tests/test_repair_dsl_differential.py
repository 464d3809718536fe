"""Repair-DSL differential: production closures vs the reference interpreter.

The DSL executor evaluates every expression through
``compile_expression`` programs built once per tactic/strategy.  Here the
same documents are also built with that one call swapped for the
tree-walking ``Evaluator`` (``reference.ReferenceProgram``), and every
strategy of every registered scenario — and of the Figure 5 lint fixture
— is run both ways on healthy, violating and wrong-typed inputs.  The two
must agree on everything a repair leaves behind: the ``RepairOutcome``,
the abort reason or ``EvaluationError`` text, the intents, the
transaction's touched set, the per-tactic footprints and the model.

One divergence is known, named and pinned at the bottom
(``TestQuantifierVariableIsLexical``).
"""

import random
from pathlib import Path

import pytest
from reference import ReferenceProgram

from repro.acme.unparser import unparse_system
from repro.api import make_config
from repro.errors import EvaluationError, RepairAborted
from repro.experiment.scenarios import scenario_builder, scenario_names
from repro.lint import lint_document
from repro.repair.context import RepairContext
from repro.repair.dsl import interp, parse_repair_dsl
from repro.repair.dsl.ast import ExprStmt, ForeachStmt, IfStmt, LetStmt, ReturnStmt
from repro.repair.transactions import ModelTransaction

FIG05 = Path(__file__).parent / "fixtures" / "lint" / "clean_fig05.dsl"
TRIALS = 60


def build_plane(name):
    """Scenario ``name``'s control plane, built and never run (one shard:
    ``managers[0]`` is its engine, and that engine's ``system`` the model)."""
    return scenario_builder(name)(make_config(name, adaptation=True, fast=True)).build()


def documents():
    """``(id, scenario to build, DSL text)`` per distinct repair script."""
    seen, out = set(), []
    for name in scenario_names():
        text = build_plane(name).spec.dsl_source
        if text not in seen:  # multi_tenant_sharded runs multi_tenant's script
            seen.add(text)
            out.append((name, name, text))
    out.append(("clean_fig05", "client_server", FIG05.read_text(encoding="utf-8")))
    return out


DOCUMENTS = documents()


def build_strategies(document, evaluator, monkeypatch):
    """The document's strategies on ``"production"`` closures or with the
    executor's evaluation swapped for the ``"reference"`` interpreter."""
    with monkeypatch.context() as patch:
        if evaluator == "reference":
            patch.setattr(interp, "compile_expression", ReferenceProgram)
        return interp.build_strategies(document)


def elements(system):
    for component in system.components:
        yield component
        yield from component.ports
    for connector in system.connectors:
        yield connector
        yield from connector.roles


def element_named(system, qualified_name):
    return next(e for e in elements(system) if e.qualified_name == qualified_name)


def perturb(system, rng, originals):
    """Move every numeric property to a random multiple of its built value
    (or a fixed small/large one): healthy and violating models alike."""
    for element in elements(system):
        for name in element.property_names():
            value = originals.setdefault(
                (element.qualified_name, name), element.get_property(name)
            )
            if isinstance(value, bool):
                continue
            if isinstance(value, float):
                choices = [value, value, value * 100, value / 100, 0.0, 1.0, 50.0, 1e4]
            elif isinstance(value, int):
                choices = [value, value, value + 3, max(value - 1, 0), 0, 1, 50]
            else:
                continue
            element.set_property(name, rng.choice(choices))


def attempt(manager, strategy, argument):
    """One strategy run on ``manager``'s model, the way
    ``ArchitectureManager._attempt`` makes it, observed and then rolled back."""
    system = manager.system
    txn = ModelTransaction(system).begin()
    ctx = RepairContext(
        system,
        runtime=manager.runtime,
        bindings={**manager.checker.bindings, "__strategy_args__": [argument]},
        functions={**manager.checker.functions, **manager.operators},
        transaction=txn,
    )
    try:
        outcome = strategy.run(ctx)
        result = (
            "outcome",
            outcome.committed,
            outcome.tactic_applied,
            tuple(outcome.tactics_tried),
        )
    except RepairAborted as abort:
        result = ("abort", abort.reason)
    except EvaluationError as exc:
        result = ("error", str(exc))
    observed = {
        "result": result,
        "intents": [str(intent) for intent in ctx.intents],
        "touched": str(txn.touched()),
        "tactic_footprints": [(t, str(fp)) for t, fp in ctx.tactic_footprints],
        "model": unparse_system(system),
        "frames_left": len(ctx._locals),
    }
    txn.abort()
    return observed


def expression_count(document):
    """Expression nodes the executor evaluates: one per let, if, foreach,
    valued return and expression statement, over all bodies."""

    def count(stmts):
        total = 0
        for stmt in stmts:
            if isinstance(stmt, IfStmt):
                total += 1 + count(stmt.then_block) + count(stmt.else_block or ())
            elif isinstance(stmt, ForeachStmt):
                total += 1 + count(stmt.body)
            elif isinstance(stmt, ReturnStmt):
                total += stmt.value is not None
            elif isinstance(stmt, (LetStmt, ExprStmt)):
                total += 1
        return total

    declarations = list(document.tactics.values()) + list(document.strategies.values())
    return sum(count(decl.body) for decl in declarations)


@pytest.mark.parametrize(
    "scenario,text", [d[1:] for d in DOCUMENTS], ids=[d[0] for d in DOCUMENTS]
)
class TestScenarioDocuments:
    def test_strategies_agree_on_healthy_violating_and_mistyped_inputs(
        self, scenario, text, monkeypatch
    ):
        document = parse_repair_dsl(text)
        sides = []
        for evaluator in ("production", "reference"):
            plane = build_plane(scenario)  # one plane a side: operators keep state
            strategies = build_strategies(document, evaluator, monkeypatch)
            sides.append((plane.managers[0], strategies, random.Random(1), {}))
        scope_types = plane.spec.invariant_scopes
        applied, aborted, errors = set(), set(), 0
        for trial in range(TRIALS):
            if trial:  # trial 0 runs on the model as built
                for engine, _, rng, originals in sides:
                    perturb(engine.system, rng, originals)
            for invariant in document.invariants:
                scope_type = scope_types[invariant.name]
                for target in list(elements(sides[0][0].system)):
                    if trial > 2 and not target.declares_type(scope_type):
                        continue  # mistyped arguments: the first trials only
                    production, reference = (
                        attempt(
                            engine,
                            strategies[invariant.strategy],
                            element_named(engine.system, target.qualified_name),
                        )
                        for engine, strategies, _, _ in sides
                    )
                    assert production == reference, (invariant.strategy, target)
                    assert production["frames_left"] == 0
                    kind = production["result"][0]
                    if kind == "outcome":
                        applied.add(production["result"][2])
                    elif kind == "abort":
                        aborted.add(invariant.strategy)
                    else:
                        errors += 1
        # not vacuous: every tactic repaired something, every strategy also
        # gave up at least once, and mistyped arguments raised
        assert applied == set(document.tactics)
        assert aborted == set(document.strategies)
        assert errors > 0

    def test_every_expression_is_compiled_at_build_and_never_at_run(
        self, scenario, text, monkeypatch
    ):
        document = parse_repair_dsl(text)
        plane = build_plane(scenario)  # builds its own strategies: before counting
        compiled = []

        def counting(node, functions=None):
            compiled.append(node)
            return real(node, functions)

        real = interp.compile_expression
        monkeypatch.setattr(interp, "compile_expression", counting)
        strategies = interp.build_strategies(document)
        at_build = len(compiled)
        assert at_build == expression_count(document) > 0
        assert len({id(node) for node in compiled}) == at_build  # each node once
        for strategy in strategies.values():
            for element in list(elements(plane.managers[0].system)):
                attempt(plane.managers[0], strategy, element)
        assert len(compiled) == at_build


SCOPING = """
strategy reach(pool) = {
    let floor = 1;
    foreach member in self.components {
        if (aboveFloor()) {
            commit repair;
        }
    }
    abort NothingAbove;
}

// reads its caller's parameter, let and foreach variable by bare name
tactic aboveFloor() : boolean = {
    return member.load > floor and member != pool;
}

strategy viaArgument(pool) = {
    let hit = select one c in self.components | probe(c);
    if (hit != nil) {
        commit repair;
    }
    abort NoHit;
}

tactic probe(candidate) : boolean = {
    return candidate.load > 1;
}

strategy viaBareName(pool) = {
    let hit = select one c in self.components | peek();
    if (hit != nil) {
        commit repair;
    }
    abort NoHit;
}

// reads the *quantifier* variable of the expression that called it
tactic peek() : boolean = {
    return c.load > 1;
}
"""


class TestQuantifierVariableIsLexical:
    """DSL locals are dynamically scoped: a tactic body sees its caller's
    parameters, ``let`` bindings and ``foreach`` variables, under both
    evaluators.  The variable of a ``select`` / ``forall`` / ``exists``
    *expression* is different, and this is the one place the two part:

    * the tree-walker bound it with ``ctx.push``, so a tactic called from
      inside the body could read it by bare name;
    * a compiled program keeps it in a positional slot of its own frame,
      which no other program can see.

    Decision: production rejects the bare read with the ordinary
    unresolved-name error (``repro lint`` DSL101 flags it before it
    runs); the variable is passed as an argument instead, which works
    under both.  docs/migration.md carries the same sentence."""

    def run(self, strategy, evaluator, monkeypatch):
        from repro.acme.system import ArchSystem
        from repro.constraints.invariants import ConstraintChecker
        from repro.repair.engine import ArchitectureManager
        from repro.sim import Simulator

        system = ArchSystem("S")
        for name, load in (("a", 0.5), ("b", 3.0)):
            system.new_component(name, ["NodeT"]).set_property("load", load)
        manager = ArchitectureManager(Simulator(), system, ConstraintChecker())
        strategies = build_strategies(parse_repair_dsl(SCOPING), evaluator, monkeypatch)
        observed = attempt(manager, strategies[strategy], system.component("a"))
        return observed["result"]

    @pytest.mark.parametrize("strategy", ["reach", "viaArgument"])
    def test_dynamic_scoping_and_arguments_work_under_both(self, strategy, monkeypatch):
        production = self.run(strategy, "production", monkeypatch)
        assert production == self.run(strategy, "reference", monkeypatch)
        assert production[:2] == ("outcome", True)

    def test_callee_cannot_read_its_callers_quantifier_variable(self, monkeypatch):
        reference = self.run("viaBareName", "reference", monkeypatch)
        assert reference == ("outcome", True, "peek", ("peek", "peek"))
        production = self.run("viaBareName", "production", monkeypatch)
        assert production == ("error", "unresolved name 'c' (line 39, column 12)")
        report = lint_document(SCOPING, bindings=set(), properties={"load"})
        flagged = [f for f in report.findings if f.rule == "DSL101" and f.line == 39]
        assert [f.column for f in flagged] == [12]
