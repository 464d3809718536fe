"""Binds parsed repair-DSL declarations to the repair engine.

A :class:`DslTactic` implements the :class:`~repro.repair.tactic.Tactic`
interface (savepoint rollback on failure); a :class:`DslStrategy`
implements :class:`~repro.repair.strategy.RepairStrategy`.  Tactics are
callable from strategy bodies by name; style operators are callable as
element methods (``sgrp.addServer()``) through the context's function
table.

There is no interpreter here: when a tactic or strategy is built, every
expression of its body is compiled once by
:func:`~repro.constraints.compile.compile_expression` — the evaluator
the constraint checker uses — and a run only calls the programs.  Call
targets are not pre-bound: tactic callables are installed in
``ctx.functions`` per run and operators may override the stdlib.

Parameters, ``let`` bindings and ``foreach`` variables live in the
context's dynamic frames and are **dynamically scoped**: a tactic body
sees its calling strategy's.  The variable of a ``select`` / ``forall``
/ ``exists`` *expression* is lexical: a tactic called from inside that
expression's body cannot read it by bare name (pass it as an argument;
``repro lint`` DSL101 flags the bare read).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.constraints.compile import compile_expression
from repro.errors import EvaluationError, RepairAborted
from repro.repair.context import RepairContext
from repro.repair.dsl.ast import (
    AbortStmt,
    CommitStmt,
    ExprStmt,
    ForeachStmt,
    IfStmt,
    LetStmt,
    ReturnStmt,
    Stmt,
    StrategyDecl,
    TacticDecl,
)
from repro.repair.strategy import RepairOutcome, RepairStrategy
from repro.repair.tactic import Tactic

__all__ = ["DslTactic", "DslStrategy", "build_strategies"]

#: a lowered statement or block
_Step = Callable[[RepairContext], None]


class _Return(Exception):
    def __init__(self, value: Any):
        self.value = value


class _Commit(Exception):
    pass


class _Executor:
    """One statement list, lowered once to closures over compiled
    expressions; :meth:`run` executes it against a RepairContext."""

    def __init__(self, stmts: Sequence[Stmt]):
        self._steps: List[_Step] = [_lower(stmt) for stmt in stmts]

    def run(self, ctx: RepairContext) -> None:
        for step in self._steps:
            step(ctx)


def _raise(kind: type, *args: Any) -> None:
    raise kind(*args)  # never a local of a frame its traceback holds: a cycle


def _lower(stmt: Stmt) -> _Step:
    if isinstance(stmt, LetStmt):
        name, value = stmt.name, compile_expression(stmt.value).evaluate
        return lambda ctx: ctx.set_local(name, value(ctx))
    if isinstance(stmt, ExprStmt):
        return compile_expression(stmt.expr).evaluate
    if isinstance(stmt, ReturnStmt):
        if stmt.value is None:
            return lambda ctx: _raise(_Return, None)
        result = compile_expression(stmt.value).evaluate
        return lambda ctx: _raise(_Return, result(ctx))
    if isinstance(stmt, CommitStmt):
        return lambda ctx: _raise(_Commit)
    if isinstance(stmt, AbortStmt):
        reason = stmt.reason
        return lambda ctx: _raise(RepairAborted, reason)
    if isinstance(stmt, IfStmt):
        cond = compile_expression(stmt.cond).evaluate
        then_block = _Executor(stmt.then_block).run
        else_block = _Executor(stmt.else_block or ()).run

        def branch(ctx: RepairContext) -> None:
            value = cond(ctx)
            if not isinstance(value, bool):
                raise EvaluationError(f"if condition must be boolean, got {value!r}")
            (then_block if value else else_block)(ctx)

        return branch
    if isinstance(stmt, ForeachStmt):
        var, domain = stmt.var, compile_expression(stmt.domain).evaluate
        body = _Executor(stmt.body).run

        def loop(ctx: RepairContext) -> None:
            items = domain(ctx)
            if not isinstance(items, (list, tuple, set, frozenset)):
                raise EvaluationError("foreach requires a collection")
            for item in list(items):
                ctx.push({var: item})
                try:
                    body(ctx)
                finally:
                    ctx.pop()

        return loop
    # the parser produces only the above
    raise EvaluationError(f"unknown statement {type(stmt).__name__}")


class DslTactic(Tactic):
    """A tactic parsed from DSL text."""

    def __init__(self, decl: TacticDecl):
        self.decl = decl
        self.name = decl.name
        self._executor = _Executor(decl.body)
        self._pending_args: Optional[Sequence[Any]] = None

    def invoke(self, ctx: RepairContext, args: Sequence[Any]) -> bool:
        """Call with positional arguments (from a strategy body)."""
        if len(args) != len(self.decl.params):
            raise EvaluationError(
                f"tactic {self.name} expects {len(self.decl.params)} args, "
                f"got {len(args)}"
            )
        self._pending_args = args
        try:
            return self.run(ctx)  # Tactic.run adds savepoint semantics
        finally:
            self._pending_args = None

    def _apply(self, ctx: RepairContext) -> bool:
        args = self._pending_args or ()
        frame = {p.name: a for p, a in zip(self.decl.params, args)}
        ctx.push(frame)
        try:
            self._executor.run(ctx)
        except _Return as ret:
            return bool(ret.value)
        finally:
            ctx.pop()
        # Falling off the end of a tactic body means "nothing to report":
        # treat as failure so the strategy can try the next tactic.
        return False


class DslStrategy(RepairStrategy):
    """A strategy parsed from DSL text.

    The engine binds the strategy's declared parameters positionally from
    ``ctx.bindings['__strategy_args__']`` (typically the violating scope
    element, Figure 5's ``badRole``).
    """

    def __init__(self, decl: StrategyDecl, tactics: Dict[str, DslTactic]):
        self.decl = decl
        self.name = decl.name
        self.tactics = dict(tactics)
        self._executor = _Executor(decl.body)

    def run(self, ctx: RepairContext) -> RepairOutcome:
        outcome = RepairOutcome(False, self.name)

        # Expose tactics as callable functions inside this strategy, run on
        # the context they are handed: capturing ``ctx`` would be a cycle.
        def make_callable(tactic: DslTactic):
            def call(ectx: RepairContext, *args: Any) -> bool:
                outcome.tactics_tried.append(tactic.name)
                ok = tactic.invoke(ectx, args)
                if ok:
                    outcome.tactic_applied = tactic.name
                return ok

            return call

        for tname, tactic in self.tactics.items():
            ctx.functions[tname] = make_callable(tactic)

        args = list(ctx.bindings.get("__strategy_args__", ()))
        if len(args) < len(self.decl.params):
            raise EvaluationError(
                f"strategy {self.name} expects {len(self.decl.params)} args, "
                f"got {len(args)}"
            )
        frame = {p.name: a for p, a in zip(self.decl.params, args)}
        ctx.push(frame)
        try:
            self._executor.run(ctx)
        except _Commit:
            outcome.committed = True
            return outcome
        except _Return as ret:
            # a strategy returning truthy counts as commit
            outcome.committed = bool(ret.value)
            if not outcome.committed:
                raise RepairAborted("StrategyReturnedFalse")
            return outcome
        finally:
            ctx.pop()
        raise RepairAborted("NoCommit")


def build_strategies(document) -> Dict[str, DslStrategy]:
    """Instantiate every strategy in a parsed document with its tactics."""
    tactics = {name: DslTactic(decl) for name, decl in document.tactics.items()}
    return {
        name: DslStrategy(decl, tactics)
        for name, decl in document.strategies.items()
    }
