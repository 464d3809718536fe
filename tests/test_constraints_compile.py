"""Equivalence suite: compiled + incremental vs the reference interpreter.

The tree-walking interpreter the closure compiler replaced lives in
``tests/reference/`` and is the oracle here.  Layers of defense, all
over *randomized* inputs:

1. expression equivalence — randomly generated ASTs (every node type,
   valid and error-producing) must evaluate to identical values or raise
   identical ``EvaluationError``s (message for message) under the
   closure compiler and the tree-walking interpreter — on plain contexts
   and on contexts that carry the repair DSL's dynamic frames;
2. checker equivalence — ``ConstraintChecker.check_all`` must produce
   ``ConstraintResult`` lists identical to ``reference_check_all`` (the
   interpreter, always full) over randomized systems and invariant sets;
3. incremental equivalence — after arbitrary mutation sequences
   (property writes, structural surgery, transaction aborts), the
   incremental ``check_all`` must equal a ``full=True`` pass and the
   reference.
"""

import random

import pytest
from reference import Evaluator, reference_check_all

from repro.acme.system import ArchSystem
from repro.constraints.ast import (
    Binary,
    Call,
    Literal,
    Name,
    PropertyAccess,
    Quantifier,
    Select,
    SetLiteral,
    Unary,
)
from repro.constraints.compile import compile_expression, is_scope_local
from repro.constraints.evaluator import EvalContext
from repro.constraints.invariants import ConstraintChecker
from repro.constraints.parser import parse_expression
from repro.constraints.stdlib import STDLIB
from repro.repair.transactions import ModelTransaction

# ---------------------------------------------------------------------------
# Randomized model building blocks
# ---------------------------------------------------------------------------

TYPES = ("ClientT", "ServerT", "GroupT")
PROPS = ("load", "latency", "count", "ratio", "label", "flag")


def build_system(rng: random.Random, n_components: int = 6) -> ArchSystem:
    system = ArchSystem("Rand")
    for i in range(n_components):
        comp = system.new_component(f"c{i}", rng.sample(TYPES, rng.randint(1, 2)))
        for prop in rng.sample(PROPS, rng.randint(2, len(PROPS))):
            comp.set_property(prop, _random_value(rng, prop))
        if rng.random() < 0.7:
            comp.add_port(f"p{i}", {"PortT"})
    for i in range(n_components // 2):
        conn = system.new_connector(f"k{i}", ["LinkT"])
        conn.set_property("bandwidth", rng.uniform(0, 100))
        role = conn.add_role("r", {"RoleT"})
        role.set_property("latency", rng.uniform(0, 5))
        comp = system.component(f"c{rng.randrange(n_components)}")
        if comp.ports and system.attached_port(role) is None:
            port = comp.ports[0]
            if system.attached_role(port) is None:
                system.attach(port, role)
    return system


def _random_value(rng: random.Random, prop: str):
    if prop == "label":
        return rng.choice(["red", "green", "blue"])
    if prop == "flag":
        return rng.random() < 0.5
    if prop == "count":
        return rng.randrange(0, 10)
    return round(rng.uniform(-10.0, 10.0), 3)


BINDINGS = {"maxLatency": 2.0, "threshold": 0.0, "limit": 7, "tag": "red"}


# ---------------------------------------------------------------------------
# Randomized expression generator (ASTs, including error-producing ones)
# ---------------------------------------------------------------------------

_NAMES = PROPS + (
    "maxLatency",
    "threshold",
    "limit",
    "tag",
    "self",
    "system",
    "noSuchName",
)
_ATTRS = PROPS + (
    "name",
    "type",
    "ports",
    "roles",
    "components",
    "connectors",
    "noSuchProp",
)
_FUNCS = (
    ("size", 1),
    ("isEmpty", 1),
    ("contains", 2),
    ("sum", 1),
    ("avg", 1),
    ("max", 1),
    ("min", 1),
    ("abs", 1),
    ("sqrt", 1),
    ("declaresType", 2),
    ("hasProperty", 2),
    ("union", 2),
    ("intersection", 2),
    ("connected", 2),
    ("attached", 2),
    ("noSuchFn", 1),
)
_BIN_OPS = (
    "and",
    "or",
    "->",
    "==",
    "!=",
    "in",
    "<",
    "<=",
    ">",
    ">=",
    "+",
    "-",
    "*",
    "/",
    "%",
)


def gen_expr(rng: random.Random, depth: int, locals_: tuple = ()) -> object:
    """A random expression AST; shallow recursion keeps evaluation fast."""
    choices = ["literal", "name"]
    if depth > 0:
        choices += [
            "binary",
            "binary",
            "unary",
            "property",
            "call",
            "quantifier",
            "select",
            "set",
        ]
    kind = rng.choice(choices)
    line, column = rng.randrange(1, 9), rng.randrange(1, 40)

    if kind == "literal":
        value = rng.choice([0, 1, -3, 2.5, 0.0, True, False, None, "red", "x"])
        return Literal(value).at(line, column)
    if kind == "name":
        pool = _NAMES + locals_ if locals_ else _NAMES
        return Name(rng.choice(pool)).at(line, column)
    if kind == "unary":
        op = rng.choice(["!", "-"])
        return Unary(op, gen_expr(rng, depth - 1, locals_)).at(line, column)
    if kind == "binary":
        op = rng.choice(_BIN_OPS)
        return Binary(
            op,
            gen_expr(rng, depth - 1, locals_),
            gen_expr(rng, depth - 1, locals_),
        ).at(line, column)
    if kind == "property":
        obj = rng.choice(
            [
                Name("self").at(line, column),
                Name("system").at(line, column),
                gen_expr(rng, depth - 1, locals_),
            ]
        )
        return PropertyAccess(obj, rng.choice(_ATTRS)).at(line, column)
    if kind == "call":
        func, arity = rng.choice(_FUNCS)
        args = [gen_expr(rng, depth - 1, locals_) for _ in range(arity)]
        receiver = None
        if rng.random() < 0.3:
            receiver = args.pop(0) if args else Name("self").at(line, column)
        return Call(func, args, receiver=receiver).at(line, column)
    if kind in ("quantifier", "select"):
        var = rng.choice(["x", "y"])
        domain = rng.choice(
            [
                PropertyAccess(Name("system").at(line, column), "components"),
                PropertyAccess(Name("self").at(line, column), "ports"),
                SetLiteral([gen_expr(rng, 0, locals_) for _ in range(3)]),
                gen_expr(rng, depth - 1, locals_),
            ]
        )
        if isinstance(domain, PropertyAccess):
            domain.at(line, column)
        type_name = rng.choice([None, "ClientT", "ServerT"])
        body = gen_expr(rng, depth - 1, locals_ + (var,))
        if kind == "quantifier":
            qkind = rng.choice(["forall", "exists", "exists_unique"])
            return Quantifier(qkind, var, type_name, domain, body).at(line, column)
        return Select(var, type_name, domain, body, one=rng.random() < 0.5).at(
            line, column
        )
    return SetLiteral(
        [gen_expr(rng, depth - 1, locals_) for _ in range(rng.randrange(0, 4))]
    ).at(line, column)


def outcome(fn):
    """Run ``fn``; normalize to ('ok', value) or ('err', type, message)."""
    try:
        return ("ok", fn())
    except Exception as exc:  # compare error type + message verbatim
        return ("err", type(exc), str(exc))


# ---------------------------------------------------------------------------
# 1. Expression-level equivalence
# ---------------------------------------------------------------------------


class TestCompiledExpressionEquivalence:
    def test_randomized_asts_match_interpreter(self):
        rng = random.Random(4242)
        evaluator = Evaluator()
        checked = errors = 0
        for round_no in range(300):
            system = build_system(random.Random(round_no), n_components=4)
            node = gen_expr(rng, depth=3)
            program = compile_expression(node, {**STDLIB})
            scopes = [None, system.components[0]]
            role_conns = [c for c in system.connectors if c.roles]
            if role_conns:
                scopes.append(role_conns[0].roles[0])
            for scope in scopes:

                def interp():
                    ctx = EvalContext(system, scope=scope, bindings=BINDINGS)
                    return evaluator.evaluate(node, ctx)

                def compiled():
                    ctx = EvalContext(system, scope=scope, bindings=BINDINGS)
                    return program.evaluate(ctx)

                want, got = outcome(interp), outcome(compiled)
                assert got == want, (
                    f"divergence on {node!r} scope={scope!r}:\n"
                    f"  interpreter: {want}\n  compiled:    {got}"
                )
                checked += 1
                if want[0] == "err":
                    errors += 1
        # the generator must actually exercise both outcomes
        assert checked > 500
        assert 0 < errors < checked

    def test_parsed_sources_match_interpreter(self):
        sources = [
            "averageLatency <= maxLatency",
            "load <= maxLatency or flag",
            "count % limit == 1",
            "size(system.components) > 0",
            "forall c : ClientT in system.components | c.load < 100",
            "exists unique c in system.components | c.name == 'c0'",
            "select one c in system.components | c.flag != true",
            "size(select c in system.components | c.count >= 0) >= 0",
            "!(1 > 2) and (nil == nil)",
            "self.noSuchProp > 1",
            "1 / 0 == 1",
            "1 + 0 == 1",  # regression: eager-dict ZeroDivisionError
            "5 % 0 == 1",
            "-latency <= 0 -> true",
            "'red' in {label, 'blue'}",
            "sqrt(-1) == 0",
            "avg({}) == 0",
            "unknownFn(1)",
            "contains(system.components, self)",
        ]
        rng = random.Random(7)
        evaluator = Evaluator()
        for source in sources:
            node = parse_expression(source)
            program = compile_expression(node, {**STDLIB})
            for seed in range(3):
                system = build_system(random.Random(seed))
                scope = rng.choice([None] + list(system.components))

                def interp():
                    ctx = EvalContext(system, scope=scope, bindings=BINDINGS)
                    return evaluator.evaluate(node, ctx)

                def compiled():
                    ctx = EvalContext(system, scope=scope, bindings=BINDINGS)
                    return program.evaluate(ctx)

                assert outcome(compiled) == outcome(interp), source

    def test_lint_corpus_invariants_match_interpreter(self):
        """Every invariant expression in the lint fixture corpus evaluates
        identically under the interpreter and the compiler (the corpus is
        adversarial by construction, so it doubles as equivalence fuel)."""
        from pathlib import Path

        from repro.errors import ParseError
        from repro.repair.dsl.parser import parse_repair_dsl

        corpus = sorted((Path(__file__).parent / "fixtures" / "lint").glob("*.dsl"))
        assert corpus, "lint fixture corpus missing"
        expressions = []
        for path in corpus:
            try:
                doc = parse_repair_dsl(path.read_text(encoding="utf-8"))
            except ParseError:
                continue  # the DSL100 fixture is unparseable on purpose
            expressions += [inv.expression for inv in doc.invariants]
        assert expressions, "corpus contributed no invariant expressions"
        evaluator = Evaluator()
        rng = random.Random(11)
        for source in expressions:
            node = parse_expression(source)
            program = compile_expression(node, {**STDLIB})
            for seed in range(3):
                system = build_system(random.Random(seed))
                scope = rng.choice([None] + list(system.components))

                def interp():
                    ctx = EvalContext(system, scope=scope, bindings=BINDINGS)
                    return evaluator.evaluate(node, ctx)

                def compiled():
                    ctx = EvalContext(system, scope=scope, bindings=BINDINGS)
                    return program.evaluate(ctx)

                assert outcome(compiled) == outcome(interp), source


class TestDynamicFrames:
    """The repair DSL keeps parameters, ``let`` bindings and ``foreach``
    variables in the context's dynamic frames (``push`` / ``set_local``),
    and a compiled name must find them exactly where the interpreter's
    lookup did: after the expression's own quantifier variables, before
    ``self`` / ``system``, scope properties and bindings."""

    @staticmethod
    def agree(source, frames, scope_of=lambda system: None, set_locals=()):
        """Evaluate ``source`` under both compile modes and the
        interpreter, each on a fresh context carrying ``frames`` (pushed
        in order) and ``set_locals`` (bound afterwards); the one outcome."""
        node = parse_expression(source) if isinstance(source, str) else source
        system = build_system(random.Random(5))

        def make_ctx():
            ctx = EvalContext(system, scope=scope_of(system), bindings=BINDINGS)
            for frame in frames:
                ctx.push(dict(frame))
            for ident, value in set_locals:
                ctx.set_local(ident, value)
            return ctx

        want = outcome(lambda: Evaluator().evaluate(node, make_ctx()))
        for functions in ({**STDLIB}, None):
            program = compile_expression(node, functions)
            ctx = make_ctx()
            depth = len(ctx._locals)
            assert outcome(lambda: program.evaluate(ctx)) == want, source
            assert len(ctx._locals) == depth  # evaluation leaves the frames alone
        return want

    def test_pushed_frame_is_read_innermost_first(self):
        assert self.agree("x + 1", [{"x": 3}]) == ("ok", 4)
        assert self.agree("x + y", [{"x": 3, "y": 1}, {"x": 10}]) == ("ok", 11)
        assert self.agree("v == nil", [{"v": None}]) == ("ok", True)  # None is a value

    def test_set_local_binds_in_the_innermost_frame(self):
        assert self.agree("x * 2", [], set_locals=[("x", 21)]) == ("ok", 42)
        got = self.agree("x + y", [{"x": 1, "y": 1}, {}], set_locals=[("x", 5)])
        assert got == ("ok", 6)

    def test_frame_shadows_self_system_scope_property_and_binding(self):
        def first(system):
            return system.components[0]

        assert self.agree("load", [], first)[1] == first(
            build_system(random.Random(5))
        ).get_property("load")
        assert self.agree("load", [{"load": 99}], first) == ("ok", 99)
        assert self.agree("maxLatency", [{"maxLatency": -1}]) == ("ok", -1)
        assert self.agree("self", [{"self": 7}], first) == ("ok", 7)
        assert self.agree("system", [{"system": 8}]) == ("ok", 8)
        assert self.agree("self.name", [{"unrelated": 1}], first) == ("ok", "c0")

    def test_quantifier_variable_shadows_a_frame_variable_of_the_same_name(self):
        frames = [{"x": 100}]
        assert self.agree("forall x in {1, 2, 3} | x < 10", frames) == ("ok", True)
        assert self.agree("select x in {1, 2, 300} | x < 100", frames) == ("ok", [1, 2])
        assert self.agree("select one x in {1, 2} | x == 100", frames) == ("ok", None)
        # ... in the body only: outside it the frame's x is back
        got = self.agree("(exists x in {1} | x == 1) and x == 100", frames)
        assert got == ("ok", True)
        nested = "forall x in {1, 2} | exists y in {x} | x == y and z == 100"
        assert self.agree(nested, [{"z": 100, "y": -1}]) == ("ok", True)

    def test_frame_variable_is_read_inside_a_quantifier_body(self):
        frames = [{"floor": 1}, {"skip": "c0"}]
        assert self.agree("select y in {1, 2, 3} | y > floor", frames) == ("ok", [2, 3])
        got = self.agree("forall y in {1, 2} | exists z in {y} | z > floor - 1", frames)
        assert got == ("ok", True)
        got = self.agree("size(select c in system.components | c.name != skip)", frames)
        assert got == ("ok", 5)

    def test_unresolved_name_keeps_its_message_and_position(self):
        got = self.agree("1 +\n  nope", [{"x": 1}, {"y": 2}])
        assert got[0] == "err"
        assert got[2] == "unresolved name 'nope' (line 2, column 3)"
        got = self.agree("forall x in {1} |\n x < nope", [{"y": 2}])
        assert got[2] == "unresolved name 'nope' (line 2, column 6)"

    def test_randomized_asts_under_random_frames_match_interpreter(self):
        rng = random.Random(2323)
        frame_names = _NAMES + ("x", "y")  # x, y: the generator's quantifier variables
        errors = hits = 0
        for round_no in range(300):
            node = gen_expr(rng, depth=3)
            frames = [
                {
                    name: rng.choice([0, 2.5, True, None, "red", [1, 2], -3])
                    for name in rng.sample(frame_names, rng.randrange(0, 4))
                }
                for _ in range(rng.randrange(1, 4))
            ]
            scope_of = rng.choice(
                [lambda system: None, lambda system: system.components[0]]
            )
            want = self.agree(node, frames, scope_of)
            errors += want[0] == "err"
            hits += any(frames)
        assert 0 < errors < 300 and hits > 200


class TestScopeLocality:
    @pytest.mark.parametrize(
        "source",
        [
            "averageLatency <= maxLatency",
            "width <= minWidth or utilization >= minUtilization",
            "replication <= minServers or utilization >= minUtilization",
            "backlog <= maxBacklog",
            "self.load + 1 < limit and !flag",
            "abs(self.load) <= sqrt(4)",
            "self.name == 'c0'",
        ],
    )
    def test_local(self, source):
        assert is_scope_local(parse_expression(source))

    @pytest.mark.parametrize(
        "source",
        [
            "size(system.components) > 0",
            "forall c in system.components | c.load < 1",
            "select one p in self.ports | true != nil",
            "size(self.ports) == 2",
            "connected(self, self)",
            "self.component.load > 1",
            # a binding may hold an element: reaching *through* one is non-local
            "other.load > 1 or other.flag",
        ],
    )
    def test_not_local(self, source):
        assert not is_scope_local(parse_expression(source))


# ---------------------------------------------------------------------------
# 2. Checker-level equivalence (production vs the reference full pass)
# ---------------------------------------------------------------------------

INVARIANT_SOURCES = [
    ("latency_bound", "latency <= maxLatency", "ClientT"),
    ("load_bound", "load < 9.5", "ServerT"),
    ("count_mod", "count % limit != 3", "GroupT"),
    ("has_components", "size(system.components) > 0", None),
    (
        "connected_pairs",
        "forall c : ClientT in system.components | c.latency >= -100",
        None,
    ),
    ("role_latency", "latency <= maxLatency", "RoleT"),
    ("broken", "noSuchName < 1", "ClientT"),
]


def make_checker() -> ConstraintChecker:
    checker = ConstraintChecker(bindings=dict(BINDINGS))
    for name, source, scope_type in INVARIANT_SOURCES:
        checker.add_source(name, source, scope_type=scope_type)
    return checker


def assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.invariant, g.scope, g.ok, g.error) == (
            w.invariant,
            w.scope,
            w.ok,
            w.error,
        )
        assert g.element is w.element


class TestCheckerEquivalence:
    def test_compiled_full_matches_interpreter_full(self):
        for seed in range(12):
            system = build_system(random.Random(seed))
            fast = make_checker()
            want = reference_check_all(fast, system)
            assert_same_results(fast.check_all(system), want)
            assert_same_results(fast.check_all(system, full=True), want)

    def test_error_results_identical(self):
        system = build_system(random.Random(99))
        fast = make_checker()
        ref_errors = [r for r in reference_check_all(fast, system) if r.error]
        fast_errors = [r for r in fast.check_all(system) if r.error]
        assert [r.error for r in fast_errors] == [r.error for r in ref_errors]


# ---------------------------------------------------------------------------
# 3. Incremental equivalence under arbitrary mutation sequences
# ---------------------------------------------------------------------------


def mutate(rng: random.Random, system: ArchSystem, counter: list) -> None:
    """One random model mutation, weighted toward the property hot path."""
    roll = rng.random()
    if roll < 0.70:
        elements = list(system.components)
        for conn in system.connectors:
            elements.append(conn)
            elements.extend(conn.roles)
        element = rng.choice(elements)
        prop = rng.choice(PROPS)
        element.set_property(prop, _random_value(rng, prop))
    elif roll < 0.80:
        counter[0] += 1
        comp = system.new_component(f"n{counter[0]}", rng.sample(TYPES, 1))
        comp.set_property("latency", rng.uniform(0, 5))
        comp.set_property("load", rng.uniform(0, 12))
    elif roll < 0.88 and len(system.components) > 2:
        system.remove_component(rng.choice(system.components).name)
    elif roll < 0.94:
        # a repair-shaped transaction that aborts: net model no-op
        txn = ModelTransaction(system).begin()
        comp = rng.choice(system.components)
        comp.set_property("load", 999.0)
        counter[0] += 1
        system.new_component(f"t{counter[0]}", ["ServerT"])
        txn.abort()
    else:
        counter[0] += 1
        comp = rng.choice(system.components)
        comp.add_port(f"q{counter[0]}", {"PortT"})


class TestIncrementalEquivalence:
    def test_incremental_equals_full_after_mutation_sequences(self):
        for seed in range(8):
            rng = random.Random(1000 + seed)
            system = build_system(rng)
            incremental = make_checker()
            always_full = make_checker()
            counter = [0]
            assert_same_results(
                incremental.check_all(system), reference_check_all(incremental, system)
            )
            for step in range(60):
                for _ in range(rng.randrange(0, 4)):
                    mutate(rng, system, counter)
                full = step % 17 == 0  # exercise the escape hatch too
                got = incremental.check_all(system, full=full)
                assert_same_results(got, always_full.check_all(system, full=True))
                assert_same_results(got, reference_check_all(incremental, system))

    def test_quiet_check_reuses_everything(self):
        system = build_system(random.Random(3))
        checker = make_checker()
        checker.check_all(system)
        evaluated = checker.stats["scopes_evaluated"]
        first = checker.check_all(system)
        second = checker.check_all(system)
        assert checker.stats["scopes_evaluated"] == evaluated  # no re-eval
        assert [r.ok for r in first] == [r.ok for r in second]

    def test_one_dirty_element_reevaluates_one_scope(self):
        system = ArchSystem("S")
        for i in range(20):
            comp = system.new_component(f"c{i}", ["ClientT"])
            comp.set_property("latency", 1.0)
        checker = ConstraintChecker(bindings={"maxLatency": 2.0})
        checker.add_source("r", "latency <= maxLatency", scope_type="ClientT")
        checker.check_all(system)
        before = checker.stats["scopes_evaluated"]
        system.component("c7").set_property("latency", 5.0)
        results = checker.check_all(system)
        assert checker.stats["scopes_evaluated"] == before + 1
        assert [r.scope for r in results if r.violated] == ["c7"]

    def test_binding_change_forces_full_pass(self):
        system = build_system(random.Random(5))
        checker = make_checker()
        checker.check_all(system)
        checker.bindings["maxLatency"] = -100.0
        assert_same_results(
            checker.check_all(system), reference_check_all(checker, system)
        )

    def test_fresh_system_object_is_not_served_from_cache(self):
        checker = make_checker()
        a = build_system(random.Random(1))
        b = build_system(random.Random(2))
        checker.check_all(a)
        rb = checker.check_all(b)
        assert_same_results(rb, reference_check_all(checker, b))
        assert_same_results(checker.check_all(a), reference_check_all(checker, a))

    def test_function_table_change_invalidates_cache(self):
        system = ArchSystem("S")
        comp = system.new_component("c0", ["ClientT"])
        comp.set_property("latency", 4.0)
        checker = ConstraintChecker(bindings={"cap": 10.0})
        checker.add_source("r", "boost(latency) <= cap", scope_type="ClientT")
        checker.functions["boost"] = lambda ctx, x: x * 2
        assert [r.ok for r in checker.check_all(system)] == [True]
        checker.functions["boost"] = lambda ctx, x: x * 3
        assert [r.ok for r in checker.check_all(system)] == [False]


# ---------------------------------------------------------------------------
# 4. The live violation set: violations() vs filtering check_all()
# ---------------------------------------------------------------------------


class TestViolationSet:
    """``violations()`` answers from the set the incremental checker keeps
    as verdicts move; it must always equal the violated results of
    ``check_all()`` — same fields, same elements, same order."""

    #: INVARIANT_SOURCES covers scope-local (latency_bound, role_latency),
    #: system-scoped (has_components), graph-reading (connected_pairs) and
    #: raising (broken) invariants; this one evaluates to a number
    NON_BOOLEAN = ("not_boolean", "load + 1", "ServerT")

    def make(self) -> ConstraintChecker:
        checker = make_checker()
        name, source, scope_type = self.NON_BOOLEAN
        checker.add_source(name, source, scope_type=scope_type)
        return checker

    @pytest.mark.parametrize("seed", range(4))
    def test_violations_equal_filtered_check_all(self, seed):
        rng = random.Random(4000 + seed)
        system = build_system(rng)
        #: the second one is asked for a full pass at every call
        checkers = [self.make(), self.make()]
        counter = [0]
        seen_violation_counts = set()
        for step in range(50):
            roll = rng.random()
            if step == 20:
                # overflow the dirty log between two checks
                comp = rng.choice(system.components)
                for k in range(4200):
                    comp.set_property("load", float(k % 13))
            elif roll < 0.15:
                value = rng.choice([-100.0, 0.5, 2.0, 100.0])
                for checker in checkers:
                    checker.bindings["maxLatency"] = value
            else:
                for _ in range(rng.randrange(0, 4)):
                    mutate(rng, system, counter)
            want = [r for r in reference_check_all(checkers[0], system) if r.violated]
            seen_violation_counts.add(len(want))
            full_passes = checkers[0].stats["full_checks"]
            for checker in checkers:
                full = checker is checkers[1] or step % 11 == 0
                # alternate which call pays for the refresh
                if step % 2:
                    everything = checker.check_all(system, full=full)
                    got = checker.violations(system)
                else:
                    got = checker.violations(system, full=full)
                    everything = checker.check_all(system)
                assert_same_results(got, [r for r in everything if r.violated])
                assert_same_results(got, want)
            if step == 20:  # the overflow really cost a full pass
                assert checkers[0].stats["full_checks"] == full_passes + 1
        # the walk must visit healthy-ish and violated-heavy states alike
        assert len(seen_violation_counts) > 3

    def test_unchanged_verdict_keeps_its_result_object(self):
        system = ArchSystem("S")
        for i in range(4):
            comp = system.new_component(f"c{i}", ["ClientT"])
            comp.set_property("latency", 1.0 if i else 5.0)
        checker = ConstraintChecker(bindings={"maxLatency": 2.0})
        checker.add_source("r", "latency <= maxLatency", scope_type="ClientT")
        before = checker.check_all(system)
        system.component("c0").set_property("latency", 6.0)  # still violated
        system.component("c1").set_property("latency", 1.5)  # still fine
        system.component("c2").set_property("latency", 9.0)  # flips
        evaluated = checker.stats["scopes_evaluated"]
        after = checker.check_all(system)
        assert checker.stats["scopes_evaluated"] == evaluated + 3
        assert after[0] is before[0] and after[1] is before[1]
        assert after[3] is before[3]
        assert after[2] is not before[2] and after[2].violated
        assert checker.violations(system) == [after[0], after[2]]

    #: for the unmoved-write walk: every component has exactly one type, so
    #: a ClientT element owns 2 fast-lane slots and a ServerT element 4;
    #: ``pairs`` (system-scoped, quantified) and ``sz`` (a call: not
    #: provably scope-local, one slot per ServerT) ride the conservative lane
    MOVED_SOURCES = [
        ("lat", "latency <= maxLatency", "ClientT"),
        ("cnt", "count % limit != 3", "ClientT"),
        ("lbl", "flag or label == tag", "ServerT"),
        ("items", '!("bad" in items)', "ServerT"),
        ("extra", "extra > 0", "ServerT"),
        ("load", "load < 9.5", "ServerT"),
        ("pairs", "forall c : ClientT in system.components | c.latency > -9", None),
        ("sz", "size(items) < 3", "ServerT"),
    ]
    FAST_SLOTS = {"ClientT": 2, "ServerT": 4}
    POOL = 5  # components per type
    #: (component prefix, scalar property) pairs a "gauge" may re-report
    REPEATABLE = [("c", "latency"), ("c", "count"), ("s", "flag"), ("s", "label")]

    @pytest.mark.parametrize("seed", range(3))
    def test_a_write_that_moves_nothing_costs_no_evaluation(self, seed):
        """More than half the writes of this walk put back the value that
        is already there.  They must change no answer (``violations()``
        equals a sibling checker's ``violations(full=True)`` after every
        step) and cost nothing: ``scopes_evaluated`` rises by exactly the
        slots of the elements some write *moved* — plus the conservative
        lane, once, if anything moved at all.  Moved is decided here by
        construction, not by asking the model: equal value, same scalar
        type; everything else (``1`` over ``1.0`` over ``True``, NaN over
        NaN, a list edited in place, declare/remove, an undo that
        restores a different value) moved."""
        rng = random.Random(7000 + seed)
        system = ArchSystem("Walk")
        for i in range(self.POOL):
            client = system.new_component(f"c{i}", ["ClientT"])
            client.set_property("latency", round(rng.uniform(0, 4), 2))
            client.set_property("count", rng.randrange(0, 10))
            server = system.new_component(f"s{i}", ["ServerT"])
            server.set_property("flag", rng.random() < 0.5)
            server.set_property("label", rng.choice(["red", "green"]))
            server.set_property("items", ["a"])
            server.set_property("load", round(rng.uniform(0, 12), 2))
        bindings = {"maxLatency": 2.0, "limit": 7, "tag": "red"}

        def make():
            checker = ConstraintChecker(bindings=dict(bindings))
            for name, source, scope_type in self.MOVED_SOURCES:
                checker.add_source(name, source, scope_type=scope_type)
            return checker

        live, reference = make(), make()  # the reference is always asked full=True
        assert_same_results(
            live.violations(system), reference.violations(system, full=True)
        )
        conservative = 1 + self.POOL  # pairs + one sz slot per server
        operations = repeats = moved_steps = quiet_steps = 0
        for step in range(120):
            moved = set()  # elements some write of this step moved
            for _ in range(rng.randrange(1, 6)):
                client = system.component(f"c{rng.randrange(self.POOL)}")
                server = system.component(f"s{rng.randrange(self.POOL)}")
                roll = rng.random()
                operations += 1
                if roll < 0.60:  # the gauge that re-reports its last value
                    prefix, prop = rng.choice(self.REPEATABLE)
                    element = client if prefix == "c" else server
                    value = element.get_property(prop)
                    element.set_property(prop, value)
                    if value != value:
                        moved.add(element)  # NaN over NaN is never "the same"
                    else:
                        repeats += 1
                elif roll < 0.70:  # a float that moves
                    old = client.get_property("latency")
                    client.set_property("latency", (old if old == old else 0.0) + 1.5)
                    moved.add(client)
                elif roll < 0.78:  # equal numbers of another type: 1, 1.0, True
                    old = client.get_property("count")
                    kinds = [k for k in (int, float, bool) if k is not type(old)]
                    client.set_property("count", rng.choice(kinds)(1))
                    moved.add(client)
                elif roll < 0.82:  # NaN: a later repeat writes NaN over NaN
                    client.set_property("latency", float("nan"))
                    moved.add(client)
                elif roll < 0.88:  # a bool and a string that move
                    red = server.get_property("label") == "red"
                    server.set_property("flag", not server.get_property("flag"))
                    server.set_property("label", "green" if red else "red")
                    moved.add(server)
                elif roll < 0.93:  # the same list object, edited in place
                    items = server.get_property("items")
                    if len(items) > 3:
                        del items[:]
                    items.append(rng.choice(["a", "bad"]))
                    server.set_property("items", items)
                    moved.add(server)
                elif roll < 0.96:  # declare / remove
                    if server.has_property("extra"):
                        server.remove_property("extra")
                    else:
                        server.declare_property("extra", 1.0, "float")
                    moved.add(server)
                else:  # transaction undo: the server moved twice, the client never
                    txn = ModelTransaction(system).begin()
                    server.set_property("load", server.get_property("load") + 50.0)
                    client.set_property("count", client.get_property("count"))
                    txn.abort()
                    moved.add(server)
            expected = conservative if moved else 0
            for element in moved:
                expected += self.FAST_SLOTS[next(iter(element.types))]
            before = live.stats["scopes_evaluated"]
            got = live.violations(system)
            assert live.stats["scopes_evaluated"] - before == expected, f"step {step}"
            assert_same_results(got, reference.violations(system, full=True))
            assert_same_results(got, [r for r in live.check_all(system) if r.violated])
            moved_steps += bool(moved)
            quiet_steps += not moved
        assert live.stats["full_checks"] == 1  # the walk never left the fast path
        assert repeats * 2 >= operations  # at least half only repeat a value
        assert moved_steps > 20 and quiet_steps > 10
