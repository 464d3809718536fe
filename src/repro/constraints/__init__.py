"""The Armani-style constraint language (substrate S8).

Architectural constraints are first-order predicates over the model graph
(§2): quantifiers (``forall``/``exists``/``select``), property access,
connectivity tests, and arithmetic.  The paper's headline constraint::

    invariant r : averageLatency <= maxLatency;

is written verbatim in this language, attached to client roles, and checked
by the architecture manager whenever gauges update the model.
"""

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
from repro.constraints.parser import parse_expression
from repro.constraints.compile import (
    CompiledExpression,
    compile_expression,
    is_scope_local,
)
from repro.constraints.evaluator import EvalContext
from repro.constraints.stdlib import STDLIB
from repro.constraints.invariants import (
    ConstraintChecker,
    ConstraintResult,
    Invariant,
)

__all__ = [
    "Binary",
    "Call",
    "Literal",
    "Name",
    "PropertyAccess",
    "Quantifier",
    "Select",
    "SetLiteral",
    "Unary",
    "parse_expression",
    "CompiledExpression",
    "compile_expression",
    "is_scope_local",
    "EvalContext",
    "STDLIB",
    "Invariant",
    "ConstraintResult",
    "ConstraintChecker",
]
