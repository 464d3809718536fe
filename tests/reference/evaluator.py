"""The tree-walking interpreter the closure compiler replaced.

Moved here verbatim from ``src/repro/constraints/evaluator.py`` when
:mod:`repro.constraints.compile` became the only evaluator under
``src/``; it stays the oracle compiled programs are compared against,
value for value and message for message.  Name resolution order for a
bare identifier:

1. local quantifier/let variables (innermost scope first);
2. properties of the scope element (``self``), so an invariant attached to
   a role can say ``averageLatency`` instead of ``self.averageLatency``;
3. global bindings (task-layer thresholds like ``maxLatency``);
4. built-in functions (when used as a call target).

Property access on elements resolves built-in attributes first (``name``,
``type``, ``components``, ``ports``...), then declared properties.

:func:`reference_check_all` is the always-full reference pass over a
checker's invariants (the body of the old ``Invariant.check``).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.acme.elements import Component, Connector, Element, Port, Role
from repro.acme.system import ArchSystem
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
from repro.constraints.compile import compile_expression
from repro.constraints.evaluator import EvalContext
from repro.constraints.invariants import ConstraintChecker, ConstraintResult
from repro.constraints.stdlib import STDLIB
from repro.errors import EvaluationError

__all__ = ["Evaluator", "ReferenceProgram", "evaluate_agreed", "reference_check_all"]


def _lookup(ctx: EvalContext, ident: str) -> Any:
    """Dynamic frames, then ``self``/``system``, scope property, bindings."""
    for frame in reversed(ctx._locals):
        if ident in frame:
            return frame[ident]
    if ident == "self":
        return ctx.scope if ctx.scope is not None else ctx.system
    if ident == "system":
        return ctx.system
    if ctx.scope is not None and ctx.scope.has_property(ident):
        return ctx.scope.get_property(ident)
    if ident in ctx.bindings:
        return ctx.bindings[ident]
    raise EvaluationError(f"unresolved name {ident!r}")


def _truthy(value: Any, node: Node, what: str) -> bool:
    if not isinstance(value, bool):
        raise EvaluationError(
            f"{what} requires a boolean, got {value!r} "
            f"(line {node.line}, column {node.column})"
        )
    return value


def _element_attr(ctx: EvalContext, obj: Any, attr: str) -> Any:
    """Built-in attributes, then declared properties."""
    lowered = attr.lower()
    if isinstance(obj, ArchSystem):
        if lowered == "components":
            return list(obj.components)
        if lowered == "connectors":
            return list(obj.connectors)
        if lowered == "attachments":
            return list(obj.attachments)
        if lowered == "name":
            return obj.name
        raise EvaluationError(f"system has no attribute {attr!r}")
    if isinstance(obj, Element):
        if lowered == "name":
            return obj.name
        if lowered == "type":
            return sorted(obj.types)
        if isinstance(obj, Component) and lowered == "ports":
            return list(obj.ports)
        if isinstance(obj, Connector) and lowered == "roles":
            return list(obj.roles)
        if isinstance(obj, Port) and lowered == "component":
            return obj.component
        if isinstance(obj, Role) and lowered == "connector":
            return obj.connector
        if obj.has_property(attr):
            return obj.get_property(attr)
        raise EvaluationError(
            f"{obj.qualified_name} has no property {attr!r} "
            f"(declared: {obj.property_names()})"
        )
    raise EvaluationError(f"cannot access {attr!r} on {type(obj).__name__}")


def _filter_domain(ctx: EvalContext, items: Any, type_name: Optional[str], node: Node):
    seq = items
    if not isinstance(seq, (list, tuple, set, frozenset)):
        raise EvaluationError(
            f"quantifier domain must be a collection "
            f"(line {node.line}, column {node.column}), got {type(seq).__name__}"
        )
    out = list(seq)
    if type_name is not None:
        out = [x for x in out if isinstance(x, Element) and x.declares_type(type_name)]
    return out


class Evaluator:
    """Evaluates AST nodes within an :class:`EvalContext`."""

    def evaluate(self, node: Node, ctx: EvalContext) -> Any:
        method = getattr(self, f"_eval_{type(node).__name__.lower()}", None)
        if method is None:
            raise EvaluationError(f"cannot evaluate node {type(node).__name__}")
        return method(node, ctx)

    # -- leaves ------------------------------------------------------------------
    def _eval_literal(self, node: Literal, ctx: EvalContext) -> Any:
        return node.value

    def _eval_name(self, node: Name, ctx: EvalContext) -> Any:
        try:
            return _lookup(ctx, node.ident)
        except EvaluationError as exc:
            raise EvaluationError(
                f"{exc} (line {node.line}, column {node.column})"
            ) from None

    def _eval_setliteral(self, node: SetLiteral, ctx: EvalContext) -> List[Any]:
        return [self.evaluate(item, ctx) for item in node.items]

    # -- access & calls --------------------------------------------------------------
    def _eval_propertyaccess(self, node: PropertyAccess, ctx: EvalContext) -> Any:
        obj = self.evaluate(node.obj, ctx)
        try:
            return _element_attr(ctx, obj, node.attr)
        except EvaluationError as exc:
            raise EvaluationError(
                f"{exc} (line {node.line}, column {node.column})"
            ) from None

    def _eval_call(self, node: Call, ctx: EvalContext) -> Any:
        args = [self.evaluate(a, ctx) for a in node.args]
        if node.receiver is not None:
            receiver = self.evaluate(node.receiver, ctx)
            args = [receiver] + args
        fn = ctx.functions.get(node.func)
        if fn is None:
            raise EvaluationError(
                f"unknown function {node.func!r} "
                f"(line {node.line}, column {node.column})"
            )
        return fn(ctx, *args)

    # -- operators ---------------------------------------------------------
    def _eval_unary(self, node: Unary, ctx: EvalContext) -> Any:
        value = self.evaluate(node.operand, ctx)
        if node.op == "!":
            return not _truthy(value, node, "'!'")
        if node.op == "-":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise EvaluationError(f"unary '-' requires a number, got {value!r}")
            return -value
        raise EvaluationError(f"unknown unary operator {node.op!r}")

    def _eval_binary(self, node: Binary, ctx: EvalContext) -> Any:
        op = node.op
        # short-circuit forms
        if op == "and":
            left = self.evaluate(node.left, ctx)
            if not _truthy(left, node, "'and'"):
                return False
            return _truthy(self.evaluate(node.right, ctx), node, "'and'")
        if op == "or":
            left = self.evaluate(node.left, ctx)
            if _truthy(left, node, "'or'"):
                return True
            return _truthy(self.evaluate(node.right, ctx), node, "'or'")
        if op == "->":
            left = self.evaluate(node.left, ctx)
            if not _truthy(left, node, "'->'"):
                return True
            return _truthy(self.evaluate(node.right, ctx), node, "'->'")

        left = self.evaluate(node.left, ctx)
        right = self.evaluate(node.right, ctx)
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "in":
            if not isinstance(right, (list, tuple, set, frozenset)):
                raise EvaluationError("'in' requires a collection on the right")
            return left in right
        if op in ("<", "<=", ">", ">="):
            for v in (left, right):
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise EvaluationError(
                        f"comparison {op!r} requires numbers, got {v!r} "
                        f"(line {node.line}, column {node.column})"
                    )
            return {"<": left < right, "<=": left <= right,
                    ">": left > right, ">=": left >= right}[op]
        if op in ("+", "-", "*", "/", "%"):
            for v in (left, right):
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise EvaluationError(
                        f"arithmetic {op!r} requires numbers, got {v!r}"
                    )
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise EvaluationError("division by zero")
                return left / right
            if right == 0:
                raise EvaluationError("modulo by zero")
            return left % right
        raise EvaluationError(f"unknown operator {op!r}")

    # -- quantifiers -------------------------------------------------------
    def _eval_quantifier(self, node: Quantifier, ctx: EvalContext) -> bool:
        domain = _filter_domain(
            ctx, self.evaluate(node.domain, ctx), node.type_name, node
        )
        matches = 0
        for item in domain:
            ctx.push({node.var: item})
            try:
                ok = _truthy(
                    self.evaluate(node.body, ctx), node, f"'{node.kind}' body"
                )
            finally:
                ctx.pop()
            if node.kind == "forall":
                if not ok:
                    return False
            elif ok:
                if node.kind == "exists":
                    return True
                matches += 1  # exists_unique keeps counting
        if node.kind == "forall":
            return True
        if node.kind == "exists":
            return False
        return matches == 1

    def _eval_select(self, node: Select, ctx: EvalContext) -> Any:
        domain = _filter_domain(
            ctx, self.evaluate(node.domain, ctx), node.type_name, node
        )
        out: List[Any] = []
        for item in domain:
            ctx.push({node.var: item})
            try:
                ok = _truthy(self.evaluate(node.body, ctx), node, "'select' body")
            finally:
                ctx.pop()
            if ok:
                if node.one:
                    return item
                out.append(item)
        if node.one:
            return None
        return out


class ReferenceProgram:
    """What :func:`~repro.constraints.compile.compile_expression` returns,
    evaluated by the tree-walker — the drop-in for a test that swaps the
    evaluator under a production caller (``functions`` is accepted and
    ignored: the interpreter reads ``ctx.functions`` at every call)."""

    def __init__(self, ast: Node, functions: Optional[Any] = None):
        self.ast = ast

    def evaluate(self, ctx: EvalContext) -> Any:
        return Evaluator().evaluate(self.ast, ctx)


def evaluate_agreed(node: Node, make_ctx: Callable[[], EvalContext]) -> Any:
    """Evaluate ``node`` the two ways production does — call targets
    pre-bound from the stdlib (the checker) and fetched from the context
    (the repair DSL) — and through the tree-walker, each on its own
    ``make_ctx()``; assert one outcome (equal value, or the same
    :class:`EvaluationError` message) and return or raise it."""
    programs = (
        compile_expression(node, STDLIB),
        compile_expression(node),
        ReferenceProgram(node),
    )
    outcomes = []
    for program in programs:
        try:
            outcomes.append((program.evaluate(make_ctx()), None))
        except EvaluationError as exc:
            outcomes.append((str(exc), exc))
    (value, error), *others = outcomes
    for other_value, other_error in others:
        assert (other_value, other_error is None) == (value, error is None), outcomes
    if error is not None:
        raise error
    return value


def reference_check_all(
    checker: ConstraintChecker, system: ArchSystem
) -> List[ConstraintResult]:
    """Every invariant of ``checker`` over every scope element, always
    full, through the tree-walker; :meth:`ConstraintChecker.check_all`
    adds compilation and incremental reuse on top of identical semantics
    and must return these results in this order."""
    results: List[ConstraintResult] = []
    evaluator = Evaluator()
    for invariant in checker.invariants:
        for scope in invariant._scopes(system):
            ctx = EvalContext(
                system,
                scope=scope,
                bindings=checker.bindings,
                functions=checker.functions,
            )
            scope_name = scope.qualified_name if scope is not None else None
            try:
                value = evaluator.evaluate(invariant.ast, ctx)
            except EvaluationError as exc:
                error: Optional[str] = str(exc)
                value = False
            else:
                error = None
                if not isinstance(value, bool):
                    error = f"invariant must be boolean, got {value!r}"
                    value = False
            results.append(
                ConstraintResult(invariant.name, value, scope_name, scope, error)
            )
    return results
