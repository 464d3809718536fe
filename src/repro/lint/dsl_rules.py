"""Rule family 1: semantic checks over a parsed repair-DSL document.

Everything here is *static* — invariants and tactic bodies are parsed
and walked but never evaluated, so linting a spec can never mutate a
model or perturb an event schedule.

Rules (see docs/linting.md for the catalog):

* ``DSL100`` — the document (or an invariant expression) fails to parse;
* ``DSL101`` — a bare name resolves to nothing: not a parameter, local,
  binding, or declared model property (needs name context);
* ``DSL102`` — a stdlib function is called with the wrong arity;
* ``DSL103`` — a stdlib function is called on a literal of a type it
  can never accept;
* ``DSL104`` — a statement is unreachable after ``return``/``commit``/
  ``abort`` (or after an ``if`` whose branches all terminate);
* ``DSL105`` — a call names a function that is not a declared tactic,
  a stdlib function, or a known style operator (needs operator context);
* ``DSL106`` — a strategy has no ``commit repair`` and no ``return``:
  every execution falls through to ``RepairAborted(NoCommit)``;
* ``DSL107`` — a tactic can never report success: no ``return`` at all,
  or every ``return`` is literally ``false``;
* ``DSL108`` — the same tactic call appears twice in one if/else-if
  chain, so the later arm can never add anything;
* ``DSL109`` — a tactic is declared but never invoked by any strategy
  or tactic;
* ``DSL110`` — an invariant routes to a strategy the document does not
  declare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.constraints.ast import (
    Binary,
    Call,
    Literal,
    Name,
    Node,
    PropertyAccess,
    Quantifier,
    Select,
    SetLiteral,
    Unary,
)
from repro.constraints.parser import parse_expression
from repro.errors import ParseError
from repro.lint.findings import ERROR, WARNING, LintFinding
from repro.repair.dsl.ast import (
    AbortStmt,
    CommitStmt,
    ExprStmt,
    ForeachStmt,
    IfStmt,
    LetStmt,
    ReturnStmt,
    Stmt,
)
from repro.repair.dsl.parser import RepairDocument, parse_repair_dsl

__all__ = ["DocumentContext", "lint_parsed_document", "parse_for_lint"]

#: stdlib function name -> expected argument count (a method-style
#: receiver counts as the first argument, mirroring the evaluator).
_STDLIB_ARITY: Dict[str, int] = {
    "size": 1,
    "isEmpty": 1,
    "sum": 1,
    "avg": 1,
    "max": 1,
    "min": 1,
    "abs": 1,
    "sqrt": 1,
    "contains": 2,
    "connected": 2,
    "attached": 2,
    "declaresType": 2,
    "hasProperty": 2,
    "union": 2,
    "intersection": 2,
}

#: stdlib functions whose (first) argument must be a collection
_COLLECTION_FNS = frozenset(
    ("size", "isEmpty", "sum", "avg", "max", "min", "contains", "union",
     "intersection")
)

#: stdlib functions whose argument must be a number
_NUMERIC_FNS = frozenset(("abs", "sqrt"))


@dataclass
class DocumentContext:
    """What the linter may assume known about the spec around a document.

    ``bindings``/``properties`` feed DSL101 (bare-name resolution) and
    ``operators`` feeds DSL105 (unknown calls); each check only runs
    when its context was actually provided, so document-only linting
    (no spec in hand) stays free of false positives.
    """

    source: str = "<dsl>"
    bindings: Optional[Set[str]] = None
    properties: Optional[Set[str]] = None
    operators: Optional[Set[str]] = None
    concurrency: str = "serial"
    binding_values: Dict[str, float] = field(default_factory=dict)

    def names_known(self) -> bool:
        return self.bindings is not None and self.properties is not None

    def known_names(self) -> Set[str]:
        names = {"self", "system"}
        if self.bindings:
            names |= self.bindings
        if self.properties:
            names |= self.properties
        return names


def parse_for_lint(
    source_text: str, ctx: DocumentContext
) -> Tuple[Optional[RepairDocument], List[LintFinding]]:
    """Parse a DSL document, turning parse failures into DSL100 findings."""
    try:
        return parse_repair_dsl(source_text), []
    except ParseError as exc:
        finding = LintFinding(
            rule="DSL100",
            severity=ERROR,
            source=ctx.source,
            message=f"repair DSL does not parse: {exc.bare_message}",
            hint="fix the syntax error; nothing else can be checked until it parses",
            line=exc.line,
            column=exc.column,
        )
        return None, [finding]


def lint_parsed_document(
    doc: RepairDocument, ctx: DocumentContext
) -> List[LintFinding]:
    """Run every family-1 rule over an already-parsed document."""
    findings: List[LintFinding] = []
    findings += _check_invariants(doc, ctx)
    findings += _check_expressions(doc, ctx)
    findings += _check_unreachable(doc, ctx)
    findings += _check_strategy_commit_paths(doc, ctx)
    findings += _check_tactic_truth_paths(doc, ctx)
    findings += _check_shadowed_calls(doc, ctx)
    findings += _check_unused_tactics(doc, ctx)
    return findings


# ---------------------------------------------------------------------------
# Walk helpers
# ---------------------------------------------------------------------------

def iter_statements(body: Sequence[Stmt]) -> Iterator[Stmt]:
    """Every statement in a body, recursively, in source order."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, IfStmt):
            yield from iter_statements(stmt.then_block)
            if stmt.else_block:
                yield from iter_statements(stmt.else_block)
        elif isinstance(stmt, ForeachStmt):
            yield from iter_statements(stmt.body)


def iter_expressions(body: Sequence[Stmt]) -> Iterator[Tuple[Node, Stmt]]:
    """Every expression in a body with its carrying statement."""
    for stmt in iter_statements(body):
        if isinstance(stmt, LetStmt):
            yield stmt.value, stmt
        elif isinstance(stmt, IfStmt):
            yield stmt.cond, stmt
        elif isinstance(stmt, ForeachStmt):
            yield stmt.domain, stmt
        elif isinstance(stmt, ReturnStmt) and stmt.value is not None:
            yield stmt.value, stmt
        elif isinstance(stmt, ExprStmt):
            yield stmt.expr, stmt


def iter_calls(node: Node) -> Iterator[Call]:
    """Every Call node in an expression tree."""
    for child in walk_expr(node):
        if isinstance(child, Call):
            yield child


def walk_expr(node: Node) -> Iterator[Node]:
    yield node
    if isinstance(node, PropertyAccess):
        yield from walk_expr(node.obj)
    elif isinstance(node, Call):
        if node.receiver is not None:
            yield from walk_expr(node.receiver)
        for arg in node.args:
            yield from walk_expr(arg)
    elif isinstance(node, Unary):
        yield from walk_expr(node.operand)
    elif isinstance(node, Binary):
        yield from walk_expr(node.left)
        yield from walk_expr(node.right)
    elif isinstance(node, (Quantifier, Select)):
        yield from walk_expr(node.domain)
        yield from walk_expr(node.body)
    elif isinstance(node, SetLiteral):
        for item in node.items:
            yield from walk_expr(item)


def _declared_bodies(
    doc: RepairDocument,
) -> Iterator[Tuple[str, str, Sequence[Stmt], List[str]]]:
    """(kind, name, body, param names) for every strategy and tactic."""
    for decl in doc.strategies.values():
        yield "strategy", decl.name, decl.body, [p.name for p in decl.params]
    for decl in doc.tactics.values():
        yield "tactic", decl.name, decl.body, [p.name for p in decl.params]


# ---------------------------------------------------------------------------
# DSL110 + invariant expression parsing (DSL100 for expressions)
# ---------------------------------------------------------------------------

def _check_invariants(doc: RepairDocument, ctx: DocumentContext) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for decl in doc.invariants:
        if decl.strategy not in doc.strategies:
            declared = ", ".join(sorted(doc.strategies)) or "none"
            findings.append(
                LintFinding(
                    rule="DSL110",
                    severity=ERROR,
                    source=ctx.source,
                    message=(
                        f"invariant {decl.name!r} routes to undeclared "
                        f"strategy {decl.strategy!r} (declared: {declared})"
                    ),
                    hint="declare the strategy or fix the invariant's '-> name'",
                    line=decl.line,
                    column=decl.column,
                )
            )
        try:
            parse_expression(decl.expression)
        except ParseError as exc:
            findings.append(
                LintFinding(
                    rule="DSL100",
                    severity=ERROR,
                    source=ctx.source,
                    message=(
                        f"invariant {decl.name!r} expression does not parse: "
                        f"{exc.bare_message}"
                    ),
                    hint="the constraint checker would reject this at build time",
                    line=decl.line,
                    column=decl.column,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# DSL101 / DSL102 / DSL103 / DSL105 — expression-level checks
# ---------------------------------------------------------------------------

def _expression_findings(
    expr: Node,
    env: Set[str],
    where: str,
    in_strategy: bool,
    doc: RepairDocument,
    ctx: DocumentContext,
    line: int,
    column: int,
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    known = ctx.known_names() | env if ctx.names_known() else None
    tactics = set(doc.tactics)

    def visit(node: Node, bound: Set[str]) -> None:
        if isinstance(node, Name):
            if known is not None and node.ident not in known | bound:
                findings.append(
                    LintFinding(
                        rule="DSL101",
                        severity=ERROR,
                        source=ctx.source,
                        message=(
                            f"{where}: name {node.ident!r} is not a parameter, "
                            "local, binding, or declared model property"
                        ),
                        hint="check the spelling against the spec's bindings "
                        "and the style family's declared properties",
                        line=node.line or line,
                        column=node.column or column,
                    )
                )
            return
        if isinstance(node, PropertyAccess):
            visit(node.obj, bound)
            return
        if isinstance(node, Call):
            findings.extend(
                _call_findings(node, bound, where, in_strategy, tactics, ctx, line)
            )
            if node.receiver is not None:
                visit(node.receiver, bound)
            for arg in node.args:
                visit(arg, bound)
            return
        if isinstance(node, Unary):
            visit(node.operand, bound)
            return
        if isinstance(node, Binary):
            visit(node.left, bound)
            visit(node.right, bound)
            return
        if isinstance(node, (Quantifier, Select)):
            visit(node.domain, bound)
            visit(node.body, bound | {node.var})
            return
        if isinstance(node, SetLiteral):
            for item in node.items:
                visit(item, bound)

    visit(expr, set())
    return findings


def _call_findings(
    node: Call,
    bound: Set[str],
    where: str,
    in_strategy: bool,
    tactics: Set[str],
    ctx: DocumentContext,
    fallback_line: int,
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    name = node.func
    argc = len(node.args) + (1 if node.receiver is not None else 0)
    line = node.line or fallback_line
    column = node.column

    if name in _STDLIB_ARITY:
        want = _STDLIB_ARITY[name]
        if argc != want:
            findings.append(
                LintFinding(
                    rule="DSL102",
                    severity=ERROR,
                    source=ctx.source,
                    message=(
                        f"{where}: {name}() takes {want} argument(s), got {argc}"
                        + (" (the receiver counts)" if node.receiver else "")
                    ),
                    hint="see the stdlib arity table in docs/linting.md",
                    line=line,
                    column=column,
                )
            )
        first = node.receiver if node.receiver is not None else (
            node.args[0] if node.args else None
        )
        if isinstance(first, Literal):
            bad_collection = name in _COLLECTION_FNS and not isinstance(
                first.value, (list, tuple)
            )
            bad_number = name in _NUMERIC_FNS and (
                isinstance(first.value, (bool, str)) or first.value is None
            )
            if bad_collection or bad_number:
                want_kind = "a collection" if bad_collection else "a number"
                findings.append(
                    LintFinding(
                        rule="DSL103",
                        severity=ERROR,
                        source=ctx.source,
                        message=(
                            f"{where}: {name}() expects {want_kind}, got the "
                            f"literal {first.value!r}"
                        ),
                        hint="this call raises EvaluationError on every run",
                        line=line,
                        column=column,
                    )
                )
        if name == "declaresType" and len(node.args) >= 1:
            type_arg = node.args[-1]
            if isinstance(type_arg, Literal) and not isinstance(type_arg.value, str):
                findings.append(
                    LintFinding(
                        rule="DSL103",
                        severity=ERROR,
                        source=ctx.source,
                        message=(
                            f"{where}: declaresType() expects a type-name "
                            f"string, got the literal {type_arg.value!r}"
                        ),
                        hint="quote the type name",
                        line=line,
                        column=column,
                    )
                )
        return findings

    if name in tactics:
        return findings
    if ctx.operators is not None and name not in ctx.operators:
        kind = "tactic" if in_strategy else "tactic or style operator"
        findings.append(
            LintFinding(
                rule="DSL105",
                severity=ERROR,
                source=ctx.source,
                message=(
                    f"{where}: call to {name!r}, which is no declared {kind}, "
                    "stdlib function, or registered operator"
                ),
                hint="declare the tactic or register the operator in the spec",
                line=line,
                column=column,
            )
        )
    return findings


def _check_expressions(doc: RepairDocument, ctx: DocumentContext) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for kind, name, body, params in _declared_bodies(doc):
        where = f"{kind} {name!r}"
        env = set(params)
        # lets and foreach vars are script-scoped (flat), not block-scoped
        for stmt in iter_statements(body):
            if isinstance(stmt, LetStmt):
                env.add(stmt.name)
            elif isinstance(stmt, ForeachStmt):
                env.add(stmt.var)
        for expr, stmt in iter_expressions(body):
            findings += _expression_findings(
                expr,
                env,
                where,
                kind == "strategy",
                doc,
                ctx,
                stmt.line,
                stmt.column,
            )
    if ctx.names_known():
        for decl in doc.invariants:
            try:
                expr = parse_expression(decl.expression)
            except ParseError:
                continue  # already a DSL100 finding
            findings += _expression_findings(
                expr,
                set(),
                f"invariant {decl.name!r}",
                False,
                doc,
                ctx,
                decl.line,
                decl.column,
            )
    return findings


# ---------------------------------------------------------------------------
# DSL104 — unreachable statements
# ---------------------------------------------------------------------------

def _terminates(stmt: Stmt) -> bool:
    """True when control can never continue past this statement."""
    if isinstance(stmt, (ReturnStmt, CommitStmt, AbortStmt)):
        return True
    if isinstance(stmt, IfStmt):
        if stmt.else_block is None:
            return False
        return _block_terminates(stmt.then_block) and _block_terminates(
            stmt.else_block
        )
    return False


def _block_terminates(body: Sequence[Stmt]) -> bool:
    return any(_terminates(stmt) for stmt in body)


def _unreachable_in(body: Sequence[Stmt]) -> Iterator[Stmt]:
    terminated = False
    for stmt in body:
        if terminated:
            yield stmt
            continue
        if isinstance(stmt, IfStmt):
            yield from _unreachable_in(stmt.then_block)
            if stmt.else_block:
                yield from _unreachable_in(stmt.else_block)
        elif isinstance(stmt, ForeachStmt):
            yield from _unreachable_in(stmt.body)
        if _terminates(stmt):
            terminated = True


def _check_unreachable(doc: RepairDocument, ctx: DocumentContext) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for kind, name, body, _params in _declared_bodies(doc):
        for stmt in _unreachable_in(body):
            findings.append(
                LintFinding(
                    rule="DSL104",
                    severity=WARNING,
                    source=ctx.source,
                    message=(
                        f"{kind} {name!r}: statement is unreachable (control "
                        "already left via return/commit/abort)"
                    ),
                    hint="delete the dead statement or restructure the branch",
                    line=stmt.line,
                    column=stmt.column,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# DSL106 / DSL107 — commit and truth paths
# ---------------------------------------------------------------------------

def _check_strategy_commit_paths(
    doc: RepairDocument, ctx: DocumentContext
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for decl in doc.strategies.values():
        stmts = list(iter_statements(decl.body))
        has_commit = any(isinstance(s, CommitStmt) for s in stmts)
        has_return = any(isinstance(s, ReturnStmt) for s in stmts)
        if not has_commit and not has_return:
            findings.append(
                LintFinding(
                    rule="DSL106",
                    severity=ERROR,
                    source=ctx.source,
                    message=(
                        f"strategy {decl.name!r} has no 'commit repair' and no "
                        "'return': every run aborts with NoCommit"
                    ),
                    hint="add a 'commit repair;' on the success path",
                    line=decl.line,
                    column=decl.column,
                )
            )
    return findings


def _is_false_literal(node: Optional[Node]) -> bool:
    return node is None or (isinstance(node, Literal) and node.value is False)


def _check_tactic_truth_paths(
    doc: RepairDocument, ctx: DocumentContext
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for decl in doc.tactics.values():
        returns = [s for s in iter_statements(decl.body) if isinstance(s, ReturnStmt)]
        if returns and not all(_is_false_literal(r.value) for r in returns):
            continue
        detail = (
            "never executes a 'return'" if not returns
            else "only ever returns false"
        )
        findings.append(
            LintFinding(
                rule="DSL107",
                severity=ERROR,
                source=ctx.source,
                message=(
                    f"tactic {decl.name!r} {detail}, so it can never report "
                    "success (falling off the end returns false)"
                ),
                hint="return true (or a computed condition) after applying "
                "the change",
                line=decl.line,
                column=decl.column,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# DSL108 — tactic calls shadowed by chain ordering
# ---------------------------------------------------------------------------

def _call_key(node: Node) -> Optional[str]:
    """A stable key for 'the same call with the same simple arguments'."""
    if not isinstance(node, Call) or node.receiver is not None:
        return None
    parts = [node.func]
    for arg in node.args:
        if isinstance(arg, Name):
            parts.append(arg.ident)
        elif isinstance(arg, Literal):
            parts.append(repr(arg.value))
        else:
            return None  # computed argument: treat as distinct
    return "(".join(parts)


def _chain_conditions(stmt: IfStmt) -> Iterator[Node]:
    """The conditions of an if/else-if chain, outermost first."""
    cursor: Optional[IfStmt] = stmt
    while cursor is not None:
        yield cursor.cond
        nxt = cursor.else_block
        if nxt and len(nxt) == 1 and isinstance(nxt[0], IfStmt):
            cursor = nxt[0]
        else:
            cursor = None


def _check_shadowed_calls(
    doc: RepairDocument, ctx: DocumentContext
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for kind, name, body, _params in _declared_bodies(doc):
        for stmt in body:
            if not isinstance(stmt, IfStmt):
                continue
            seen: Dict[str, Node] = {}
            for cond in _chain_conditions(stmt):
                key = _call_key(cond)
                if key is None:
                    continue
                if key in seen:
                    call = cond
                    findings.append(
                        LintFinding(
                            rule="DSL108",
                            severity=WARNING,
                            source=ctx.source,
                            message=(
                                f"{kind} {name!r}: tactic call "
                                f"{call.func}(...) repeats an earlier arm of "
                                "the same if/else-if chain and can never add "
                                "an outcome"
                            ),
                            hint="drop the duplicate arm or vary its arguments",
                            line=call.line or stmt.line,
                            column=call.column,
                        )
                    )
                else:
                    seen[key] = cond
    return findings


# ---------------------------------------------------------------------------
# DSL109 — declared-but-never-called tactics
# ---------------------------------------------------------------------------

def _check_unused_tactics(
    doc: RepairDocument, ctx: DocumentContext
) -> List[LintFinding]:
    called: Set[str] = set()
    for _kind, _name, body, _params in _declared_bodies(doc):
        for expr, _stmt in iter_expressions(body):
            for call in iter_calls(expr):
                called.add(call.func)
    findings: List[LintFinding] = []
    for decl in doc.tactics.values():
        if decl.name not in called:
            findings.append(
                LintFinding(
                    rule="DSL109",
                    severity=WARNING,
                    source=ctx.source,
                    message=(
                        f"tactic {decl.name!r} is declared but no strategy "
                        "or tactic ever calls it"
                    ),
                    hint="wire it into a strategy or delete it",
                    line=decl.line,
                    column=decl.column,
                )
            )
    return findings
