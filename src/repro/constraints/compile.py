"""One-time AST -> closure compiler: the constraint language's evaluator.

Invariants (checked every control-loop wake-up over hundreds of scope
elements) and the repair DSL's guards, ``let`` values and calls are one
expression language, and this module is the one thing that evaluates it.
:func:`compile_expression` walks an AST **once** and emits a tree of
plain Python closures:

* **quantifier locals are positional** — quantifier/select variables
  resolve to a fixed index into a flat frame list;
* **every other name is looked up when it runs**: the context's dynamic
  frames (innermost first), then ``self``/``system``, a property of the
  scope element, the global bindings.  The dynamic frames are the repair
  DSL's parameters, ``let`` bindings and ``foreach`` variables; they are
  *dynamically scoped* — a tactic body sees those of the strategy that
  called it.  The checker's contexts carry none and pay one truth test
  per name;
* **property access is pre-bound** — the attribute name, its lowered
  built-in form, and the error suffix are captured at compile time, and
  declared properties read the underlying property dict directly;
* **calls are direct where a table is given** — functions found in the
  table handed to :func:`compile_expression` are captured as plain
  callables (stdlib calls skip the per-call dict lookup); every other
  target is fetched from ``ctx.functions`` when the call runs (the
  repair DSL: tactic callables are installed per run).

The tree-walking interpreter this replaced is the *reference
implementation* in ``tests/reference/``: compiled programs must produce
identical values and raise identical
:class:`~repro.errors.EvaluationError`\\s (message for message) —
``tests/test_constraints_compile.py`` and
``tests/test_repair_dsl_differential.py`` enforce this over randomized
systems, expressions and every registered scenario's repair script.

:func:`is_scope_local` is the static analysis behind incremental
checking (see :mod:`repro.constraints.invariants`): it proves that an
expression reads nothing but its scope element's own properties and
global bindings, which is what lets the checker skip re-evaluating an
invariant whose scope element has not changed.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

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
from repro.errors import EvaluationError

__all__ = ["CompiledExpression", "compile_expression", "is_scope_local"]

#: fn(ctx, frame) -> value; ``frame`` is the flat positional local stack.
CompiledFn = Callable[[Any, List[Any]], Any]

_COLLECTIONS = (list, tuple, set, frozenset)
_NUMERIC_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

#: attributes resolved structurally, before declared properties
#: (lowered: they are matched case-insensitively)
_BUILTIN_ATTRS = frozenset(
    ("components", "connectors", "attachments", "name", "type",
     "ports", "roles", "component", "connector")
)


class CompiledExpression:
    """A constraint expression lowered to a closure tree.

    ``scope_local`` records the :func:`is_scope_local` verdict so the
    incremental checker can decide dirtiness granularity without
    re-walking the AST.
    """

    __slots__ = ("ast", "scope_local", "_fn")

    def __init__(self, ast: Node, fn: CompiledFn, scope_local: bool):
        self.ast = ast
        self.scope_local = scope_local
        self._fn = fn

    def evaluate(self, ctx) -> Any:
        """Evaluate against an :class:`EvalContext`-compatible context."""
        return self._fn(ctx, [])


def compile_expression(
    node: Node, functions: Optional[Mapping[str, Callable[..., Any]]] = None
) -> CompiledExpression:
    """Compile ``node`` once; reuse the result across scopes and checks.

    ``functions`` pre-binds call targets: a call to a name present in the
    mapping captures that callable directly, so the compiled program must
    be evaluated with contexts whose function table agrees with it (the
    :class:`~repro.constraints.invariants.ConstraintChecker` recompiles
    whenever its table changes).
    """
    table: Optional[Dict[str, Callable[..., Any]]] = (
        dict(functions) if functions is not None else None
    )
    return CompiledExpression(node, _compile(node, (), table), is_scope_local(node))


# ---------------------------------------------------------------------------
# Scope locality
# ---------------------------------------------------------------------------

#: functions that read nothing from the system graph
_PURE_FUNCTIONS = frozenset(("abs", "sqrt"))


def is_scope_local(node: Node) -> bool:
    """True when the expression only reads the scope element + bindings.

    A sound under-approximation: bare names (scope properties, thresholds
    from the bindings), ``self``-rooted property access to *declared*
    properties, literals, operators, and pure numeric functions qualify;
    anything touching ``system``, structural attributes (ports, roles,
    attachments...), quantifier/select domains, or graph-reading stdlib
    functions disqualifies.  Non-local invariants are conservatively
    re-evaluated whenever anything in the model changed.
    """
    if isinstance(node, Literal):
        return True
    if isinstance(node, Name):
        return node.ident != "system"
    if isinstance(node, PropertyAccess):
        return (
            isinstance(node.obj, Name)
            and node.obj.ident == "self"
            and node.attr.lower()
            not in ("components", "connectors", "attachments",
                    "ports", "roles", "component", "connector")
        )
    if isinstance(node, Unary):
        return is_scope_local(node.operand)
    if isinstance(node, Binary):
        return is_scope_local(node.left) and is_scope_local(node.right)
    if isinstance(node, SetLiteral):
        return all(is_scope_local(item) for item in node.items)
    if isinstance(node, Call):
        if node.func not in _PURE_FUNCTIONS:
            return False
        receiver_ok = node.receiver is None or is_scope_local(node.receiver)
        return receiver_ok and all(is_scope_local(a) for a in node.args)
    # Quantifier / Select domains range over the model graph.
    return False


# ---------------------------------------------------------------------------
# Node compilers
# ---------------------------------------------------------------------------

def _compile(
    node: Node,
    locals_: Tuple[str, ...],
    functions: Optional[Dict[str, Callable[..., Any]]],
) -> CompiledFn:
    kind = type(node)
    if kind is Literal:
        return _compile_literal(node)
    if kind is Name:
        return _compile_name(node, locals_)
    if kind is PropertyAccess:
        return _compile_property_access(node, locals_, functions)
    if kind is Call:
        return _compile_call(node, locals_, functions)
    if kind is Unary:
        return _compile_unary(node, locals_, functions)
    if kind is Binary:
        return _compile_binary(node, locals_, functions)
    if kind is Quantifier:
        return _compile_quantifier(node, locals_, functions)
    if kind is Select:
        return _compile_select(node, locals_, functions)
    if kind is SetLiteral:
        return _compile_set_literal(node, locals_, functions)
    return _compile_raiser(f"cannot evaluate node {kind.__name__}")


def _compile_raiser(message: str) -> CompiledFn:
    def run(ctx, frame):
        raise EvaluationError(message)

    return run


def _compile_literal(node: Literal) -> CompiledFn:
    value = node.value
    return lambda ctx, frame: value


#: "no dynamic frame binds this name" (``None`` is a legal DSL value)
_UNBOUND = object()


def _from_frames(frames: List[Dict[str, Any]], ident: str) -> Any:
    """The innermost dynamic frame's value for ``ident``, or ``_UNBOUND``."""
    for dynamic in reversed(frames):
        if ident in dynamic:
            return dynamic[ident]
    return _UNBOUND


def _compile_name(node: Name, locals_: Tuple[str, ...]) -> CompiledFn:
    ident = node.ident
    # Innermost quantifier binding wins; resolve to a frame slot now.
    for idx in range(len(locals_) - 1, -1, -1):
        if locals_[idx] == ident:
            return lambda ctx, frame, _i=idx: frame[_i]
    # Everything else waits for the context: a dynamic frame (the repair
    # DSL's parameters, lets and foreach variables) shadows what follows.
    if ident in ("self", "system"):

        def run(ctx, frame):
            if ctx._locals:
                value = _from_frames(ctx._locals, ident)
                if value is not _UNBOUND:
                    return value
            if ident == "system" or ctx.scope is None:
                return ctx.system
            return ctx.scope

        return run
    message = f"unresolved name {ident!r} (line {node.line}, column {node.column})"

    def run(ctx, frame):
        if ctx._locals:
            value = _from_frames(ctx._locals, ident)
            if value is not _UNBOUND:
                return value
        scope = ctx.scope
        if scope is not None:
            # one dict probe, as _compile_property_access reads a property
            prop = scope._props.get(ident)
            if prop is not None:
                return prop.value
        bindings = ctx.bindings
        if ident in bindings:
            return bindings[ident]
        raise EvaluationError(message)

    return run


def _compile_property_access(
    node: PropertyAccess,
    locals_: Tuple[str, ...],
    functions: Optional[Dict[str, Callable[..., Any]]],
) -> CompiledFn:
    objf = _compile(node.obj, locals_, functions)
    attr = node.attr
    lowered = attr.lower()
    suffix = f" (line {node.line}, column {node.column})"

    if lowered not in _BUILTIN_ATTRS:
        # Pure declared-property access: one dict probe on the fast path.
        def run(ctx, frame):
            obj = objf(ctx, frame)
            if isinstance(obj, Element):
                prop = obj._props.get(attr)
                if prop is not None:
                    return prop.value
                raise EvaluationError(
                    f"{obj.qualified_name} has no property {attr!r} "
                    f"(declared: {obj.property_names()}){suffix}"
                )
            if isinstance(obj, ArchSystem):
                raise EvaluationError(f"system has no attribute {attr!r}{suffix}")
            raise EvaluationError(
                f"cannot access {attr!r} on {type(obj).__name__}{suffix}"
            )

        return run

    def run(ctx, frame):
        obj = objf(ctx, frame)
        if isinstance(obj, ArchSystem):
            if lowered == "components":
                return list(obj.components)
            if lowered == "connectors":
                return list(obj.connectors)
            if lowered == "attachments":
                return list(obj.attachments)
            if lowered == "name":
                return obj.name
            raise EvaluationError(f"system has no attribute {attr!r}{suffix}")
        if isinstance(obj, Element):
            if lowered == "name":
                return obj.name
            if lowered == "type":
                return sorted(obj.types)
            if lowered == "ports" and isinstance(obj, Component):
                return list(obj.ports)
            if lowered == "roles" and isinstance(obj, Connector):
                return list(obj.roles)
            if lowered == "component" and isinstance(obj, Port):
                return obj.component
            if lowered == "connector" and isinstance(obj, Role):
                return obj.connector
            prop = obj._props.get(attr)
            if prop is not None:
                return prop.value
            raise EvaluationError(
                f"{obj.qualified_name} has no property {attr!r} "
                f"(declared: {obj.property_names()}){suffix}"
            )
        raise EvaluationError(
            f"cannot access {attr!r} on {type(obj).__name__}{suffix}"
        )

    return run


def _compile_call(
    node: Call,
    locals_: Tuple[str, ...],
    functions: Optional[Dict[str, Callable[..., Any]]],
) -> CompiledFn:
    name = node.func
    argfs = [_compile(a, locals_, functions) for a in node.args]
    recvf = (
        _compile(node.receiver, locals_, functions)
        if node.receiver is not None
        else None
    )
    prebound = functions.get(name) if functions is not None else None

    if prebound is not None:
        fn = prebound
        if recvf is not None:
            def run(ctx, frame):
                # interpreter order: arguments first, then the receiver
                args = [af(ctx, frame) for af in argfs]
                return fn(ctx, recvf(ctx, frame), *args)

            return run
        if not argfs:
            return lambda ctx, frame: fn(ctx)
        if len(argfs) == 1:
            a0 = argfs[0]
            return lambda ctx, frame: fn(ctx, a0(ctx, frame))
        if len(argfs) == 2:
            a0, a1 = argfs
            return lambda ctx, frame: fn(ctx, a0(ctx, frame), a1(ctx, frame))
        return lambda ctx, frame: fn(ctx, *[af(ctx, frame) for af in argfs])

    message = f"unknown function {name!r} (line {node.line}, column {node.column})"

    def run(ctx, frame):
        args = [af(ctx, frame) for af in argfs]
        if recvf is not None:
            args.insert(0, recvf(ctx, frame))
        fn = ctx.functions.get(name)
        if fn is None:
            raise EvaluationError(message)
        return fn(ctx, *args)

    return run


def _compile_unary(
    node: Unary,
    locals_: Tuple[str, ...],
    functions: Optional[Dict[str, Callable[..., Any]]],
) -> CompiledFn:
    operandf = _compile(node.operand, locals_, functions)
    if node.op == "!":
        suffix = f" (line {node.line}, column {node.column})"

        def run(ctx, frame):
            value = operandf(ctx, frame)
            if value is True:
                return False
            if value is False:
                return True
            raise EvaluationError(f"'!' requires a boolean, got {value!r}{suffix}")

        return run
    if node.op == "-":
        def run(ctx, frame):
            value = operandf(ctx, frame)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EvaluationError(f"unary '-' requires a number, got {value!r}")
            return -value

        return run
    return _compile_raiser(f"unknown unary operator {node.op!r}")


def _compile_binary(
    node: Binary,
    locals_: Tuple[str, ...],
    functions: Optional[Dict[str, Callable[..., Any]]],
) -> CompiledFn:
    op = node.op
    leftf = _compile(node.left, locals_, functions)
    rightf = _compile(node.right, locals_, functions)
    suffix = f" (line {node.line}, column {node.column})"

    if op in ("and", "or", "->"):
        message = f"{op!r} requires a boolean, got {{}}{suffix}"
        if op == "and":
            def run(ctx, frame):
                left = leftf(ctx, frame)
                if left is False:
                    return False
                if left is not True:
                    raise EvaluationError(message.format(repr(left)))
                right = rightf(ctx, frame)
                if right is True or right is False:
                    return right
                raise EvaluationError(message.format(repr(right)))

            return run
        if op == "or":
            def run(ctx, frame):
                left = leftf(ctx, frame)
                if left is True:
                    return True
                if left is not False:
                    raise EvaluationError(message.format(repr(left)))
                right = rightf(ctx, frame)
                if right is True or right is False:
                    return right
                raise EvaluationError(message.format(repr(right)))

            return run

        def run(ctx, frame):
            left = leftf(ctx, frame)
            if left is False:
                return True
            if left is not True:
                raise EvaluationError(message.format(repr(left)))
            right = rightf(ctx, frame)
            if right is True or right is False:
                return right
            raise EvaluationError(message.format(repr(right)))

        return run

    if op == "==":
        return lambda ctx, frame: leftf(ctx, frame) == rightf(ctx, frame)
    if op == "!=":
        return lambda ctx, frame: leftf(ctx, frame) != rightf(ctx, frame)
    if op == "in":
        def run(ctx, frame):
            left = leftf(ctx, frame)
            right = rightf(ctx, frame)
            if not isinstance(right, _COLLECTIONS):
                raise EvaluationError("'in' requires a collection on the right")
            return left in right

        return run
    if op in _NUMERIC_OPS:
        apply = _NUMERIC_OPS[op]
        if op in ("<", "<=", ">", ">="):
            message = f"comparison {op!r} requires numbers, got {{}}{suffix}"
        else:
            message = f"arithmetic {op!r} requires numbers, got {{}}"
        zero_message = None
        if op == "/":
            zero_message = "division by zero"
        elif op == "%":
            zero_message = "modulo by zero"

        def run(ctx, frame):
            left = leftf(ctx, frame)
            right = rightf(ctx, frame)
            if isinstance(left, bool) or not isinstance(left, (int, float)):
                raise EvaluationError(message.format(repr(left)))
            if isinstance(right, bool) or not isinstance(right, (int, float)):
                raise EvaluationError(message.format(repr(right)))
            if zero_message is not None and right == 0:
                raise EvaluationError(zero_message)
            return apply(left, right)

        return run
    return _compile_raiser(f"unknown operator {op!r}")


def _compile_domain(
    node: Node,
    locals_: Tuple[str, ...],
    functions: Optional[Dict[str, Callable[..., Any]]],
) -> CompiledFn:
    """Domain evaluation + collection check + optional type filter."""
    domf = _compile(node.domain, locals_, functions)
    type_name = node.type_name
    message = (
        f"quantifier domain must be a collection "
        f"(line {node.line}, column {node.column}), got {{}}"
    )

    def run(ctx, frame):
        domain = domf(ctx, frame)
        if not isinstance(domain, _COLLECTIONS):
            raise EvaluationError(message.format(type(domain).__name__))
        items = list(domain)
        if type_name is not None:
            items = [
                x for x in items
                if isinstance(x, Element) and x.declares_type(type_name)
            ]
        return items

    return run


def _compile_quantifier(
    node: Quantifier,
    locals_: Tuple[str, ...],
    functions: Optional[Dict[str, Callable[..., Any]]],
) -> CompiledFn:
    domainf = _compile_domain(node, locals_, functions)
    bodyf = _compile(node.body, locals_ + (node.var,), functions)
    kind = node.kind
    message = (
        f"'{kind}' body requires a boolean, got {{}} "
        f"(line {node.line}, column {node.column})"
    )

    def run(ctx, frame):
        items = domainf(ctx, frame)
        matches = 0
        slot = len(frame)
        frame.append(None)
        try:
            for item in items:
                frame[slot] = item
                ok = bodyf(ctx, frame)
                if ok is not True and ok is not False:
                    raise EvaluationError(message.format(repr(ok)))
                if kind == "forall":
                    if not ok:
                        return False
                elif ok:
                    if kind == "exists":
                        return True
                    matches += 1  # exists_unique keeps counting
        finally:
            del frame[slot:]
        if kind == "forall":
            return True
        if kind == "exists":
            return False
        return matches == 1

    return run


def _compile_select(
    node: Select,
    locals_: Tuple[str, ...],
    functions: Optional[Dict[str, Callable[..., Any]]],
) -> CompiledFn:
    domainf = _compile_domain(node, locals_, functions)
    bodyf = _compile(node.body, locals_ + (node.var,), functions)
    one = node.one
    message = (
        f"'select' body requires a boolean, got {{}} "
        f"(line {node.line}, column {node.column})"
    )

    def run(ctx, frame):
        items = domainf(ctx, frame)
        out: List[Any] = []
        slot = len(frame)
        frame.append(None)
        try:
            for item in items:
                frame[slot] = item
                ok = bodyf(ctx, frame)
                if ok is not True and ok is not False:
                    raise EvaluationError(message.format(repr(ok)))
                if ok:
                    if one:
                        return item
                    out.append(item)
        finally:
            del frame[slot:]
        if one:
            return None
        return out

    return run


def _compile_set_literal(
    node: SetLiteral,
    locals_: Tuple[str, ...],
    functions: Optional[Dict[str, Callable[..., Any]]],
) -> CompiledFn:
    itemfs = [_compile(item, locals_, functions) for item in node.items]
    return lambda ctx, frame: [f(ctx, frame) for f in itemfs]
