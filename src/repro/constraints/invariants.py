"""Invariants and the constraint checker.

An :class:`Invariant` pairs a name with a constraint expression and a
*scope*: either the whole system or an element type.  Type-scoped
invariants are evaluated once per element of that type with ``self`` bound
to the element — the paper's ``averageLatency <= maxLatency`` is scoped to
client roles, producing one violation per misbehaving client.

:class:`ConstraintChecker` evaluates a set of invariants and returns
structured results; the architecture manager reacts to violations by
dispatching the associated repair strategy (Figure 5 line 2).

The checker is **incremental**: expressions are compiled once
to closure trees (:mod:`repro.constraints.compile`), and results are
cached per (invariant, scope element) keyed on the system's change epoch
(:attr:`~repro.acme.system.ArchSystem.epoch`).  A periodic check after a
quiet interval reuses every cached result; after writes that *moved*
``k`` property values it re-evaluates O(k) scopes instead of O(model).
The system's change log says of each write whether it moved the value
(:meth:`~repro.acme.system.ArchSystem.dirty_elements_since`); a gauge
re-reporting the value the model already holds is a write that moved
nothing, and costs no evaluation:

* *scope-local* invariants (proven by
  :func:`~repro.constraints.compile.is_scope_local` to read only their
  scope element's properties and the global bindings) re-run only for
  scope elements one of whose values moved;
* every other invariant — system-scoped, graph-reading, quantified —
  conservatively re-runs whenever *any* value moved;
* structural mutations, binding changes, a new/different system object,
  or an overflowed dirty log fall back to a full pass (as does the
  ``full=True`` escape hatch of ``check_all`` / ``violations``).

The cache also keeps the **live violation set**: which (invariant, scope)
slots are violated right now, updated only where a re-evaluation moved a
verdict.  :meth:`ConstraintChecker.violations` answers from it, so one
control-loop wake-up costs O(moved scopes + violated scopes);
:meth:`ConstraintChecker.check_all` returns every result and is the one
remaining O(model) read (a list copy).  A re-evaluated scope whose
verdict did not move keeps its cached :class:`ConstraintResult` object.
Each slot whose result did move is also entered in the session's
*journal*, so a reader that keeps state per slot — the repair engine's
admission (:mod:`repro.repair.engine`) — visits only what moved since it
last drained the journal; a new session (:meth:`ConstraintChecker.session`
returns another object) means every slot number changed.  Draining is
destructive, so a journal has one reader and a checker feeds one engine.

``tests/test_constraints_compile.py`` holds the equivalence suite for
both axes: compiled programs against the tree-walking reference
interpreter (``tests/reference/``), and incremental against
``full=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.acme.elements import Element
from repro.acme.system import ArchSystem
from repro.constraints.ast import Node
from repro.constraints.compile import (
    CompiledExpression,
    compile_expression,
    is_scope_local,
)
from repro.constraints.evaluator import EvalContext
from repro.constraints.parser import parse_expression
from repro.constraints.stdlib import STDLIB
from repro.errors import ConstraintError, EvaluationError

__all__ = ["Invariant", "ConstraintResult", "ConstraintChecker"]


@dataclass(frozen=True)
class ConstraintResult:
    """Outcome of evaluating one invariant against one scope element."""

    invariant: str
    ok: bool
    scope: Optional[str] = None  # qualified element name; None = system scope
    element: Optional[Element] = None
    error: Optional[str] = None

    @property
    def violated(self) -> bool:
        return not self.ok

    def __str__(self) -> str:
        state = (
            "OK" if self.ok else ("ERROR: " + self.error if self.error else "VIOLATED")
        )
        where = f" @ {self.scope}" if self.scope else ""
        return f"[{self.invariant}{where}] {state}"


class Invariant:
    """One named constraint with an optional type scope.

    ``repair`` optionally names the repair strategy to trigger on violation
    (Figure 5's ``! -> fixLatency(r)``).
    """

    def __init__(
        self,
        name: str,
        expression: str,
        scope_type: Optional[str] = None,
        repair: Optional[str] = None,
    ):
        self.name = name
        self.source = expression
        self.scope_type = scope_type
        self.repair = repair
        try:
            self.ast: Node = parse_expression(expression)
        except Exception as exc:
            raise ConstraintError(f"invariant {name!r} does not parse: {exc}") from exc
        #: True when the expression provably reads only its scope
        #: element + bindings (the incremental checker's fast lane)
        self.scope_local: bool = is_scope_local(self.ast)

    def _scopes(self, system: ArchSystem) -> List[Optional[Element]]:
        if self.scope_type is None:
            return [None]
        scopes: List[Element] = []
        for comp in system.components:
            if comp.declares_type(self.scope_type):
                scopes.append(comp)
            for port in comp.ports:
                if port.declares_type(self.scope_type):
                    scopes.append(port)
        for conn in system.connectors:
            if conn.declares_type(self.scope_type):
                scopes.append(conn)
            for role in conn.roles:
                if role.declares_type(self.scope_type):
                    scopes.append(role)
        return scopes or []


class _CheckSession:
    """Cached state of the last check against one system object.

    A *slot* is a position in the full-check output order; it identifies
    one (invariant, scope element) pair for the session's lifetime.
    """

    __slots__ = (
        "system",
        "epoch",
        "structure_epoch",
        "bindings",
        "results",
        "violated",
        "scope_index",
        "global_slots",
        "journal",
        "reader",
    )

    def __init__(self, system: ArchSystem):
        self.system = system
        self.epoch = 0
        self.structure_epoch = 0
        self.bindings: Dict[str, Any] = {}
        #: slot -> its latest result, in full-check output order (the
        #: result names its invariant and carries its scope element)
        self.results: List[ConstraintResult] = []
        #: slots whose latest result is violated (the live violation set)
        self.violated: Set[int] = set()
        #: dirty element -> slots to re-evaluate (scope-local lane)
        self.scope_index: Dict[Element, List[int]] = {}
        #: slots re-evaluated whenever anything changed (conservative lane)
        self.global_slots: List[int] = []
        #: slots whose result moved since its reader last cleared this
        self.journal: Set[int] = set()
        #: the one reader that drains ``journal`` (a repair engine's
        #: reservation ledger), once one has claimed it
        self.reader: Optional[object] = None


class ConstraintChecker:
    """Holds invariants + global bindings; evaluates them on demand.

    ``check_all(system, full=True)`` forces one full re-evaluation
    without disabling the cache for later checks.
    """

    def __init__(
        self,
        bindings: Optional[Dict[str, Any]] = None,
        functions: Optional[Dict[str, Callable[..., Any]]] = None,
    ):
        self.bindings: Dict[str, Any] = dict(bindings or {})
        self.functions: Dict[str, Callable[..., Any]] = dict(functions or {})
        self._invariants: Dict[str, Invariant] = {}
        self._programs: Dict[str, CompiledExpression] = {}
        self._program_table: Optional[Dict[str, Callable[..., Any]]] = None
        self._session: Optional[_CheckSession] = None
        self.stats: Dict[str, int] = {
            "full_checks": 0,
            "incremental_checks": 0,
            "scopes_evaluated": 0,
            "scopes_reused": 0,
        }

    def add(self, invariant: Invariant) -> Invariant:
        if invariant.name in self._invariants:
            raise ConstraintError(f"duplicate invariant {invariant.name!r}")
        self._invariants[invariant.name] = invariant
        self._session = None
        self._programs.pop(invariant.name, None)
        return invariant

    def add_source(
        self,
        name: str,
        expression: str,
        scope_type: Optional[str] = None,
        repair: Optional[str] = None,
    ) -> Invariant:
        return self.add(Invariant(name, expression, scope_type, repair))

    def invariant(self, name: str) -> Invariant:
        try:
            return self._invariants[name]
        except KeyError:
            raise ConstraintError(f"no invariant {name!r}") from None

    @property
    def invariants(self) -> List[Invariant]:
        return [self._invariants[k] for k in sorted(self._invariants)]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def check_all(
        self, system: ArchSystem, full: bool = False
    ) -> List[ConstraintResult]:
        """Evaluate every invariant; identical results to the reference
        interpreter, but O(changed scopes) evaluations when the cache
        applies (plus one copy of the result list).

        ``full=True`` is the escape hatch: one unconditional full pass
        (the cache is rebuilt, so later calls stay incremental).
        """
        return list(self.session(system, full).results)

    def violations(
        self, system: ArchSystem, full: bool = False
    ) -> List[ConstraintResult]:
        """The violated results of :meth:`check_all`, in its order, after
        the same refresh — read from the live violation set, so the cost
        is O(moved scopes + violated scopes), not O(model)."""
        sess = self.session(system, full)
        results = sess.results
        return [results[slot] for slot in sorted(sess.violated)]

    def session(self, system: ArchSystem, full: bool = False) -> _CheckSession:
        """Bring the cached session up to date with ``system`` (or build
        a new one) and return it: ``results`` by slot, the ``violated``
        slots, and the ``journal`` of slots whose result moved."""
        self._ensure_programs()
        sess = self._session
        if (
            full
            or sess is None
            or sess.system is not system
            or sess.structure_epoch != system.structure_epoch
            or sess.bindings != self.bindings
        ):
            return self._full_check(system)
        if sess.epoch != system.epoch:
            # a write that put back the value already there moved no
            # verdict: only elements whose value moved are looked at again
            dirty = system.dirty_elements_since(sess.epoch, moved_only=True)
            if dirty is None:
                return self._full_check(system)
            self._incremental_check(sess, system, dirty)
        else:
            self.stats["incremental_checks"] += 1
            self.stats["scopes_reused"] += len(sess.results)
        return sess

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_programs(self) -> None:
        """(Re)compile when first used or when the function table moved."""
        if self._program_table != self.functions or not all(
            name in self._programs for name in self._invariants
        ):
            table = {**STDLIB, **self.functions}
            self._programs = {
                name: compile_expression(inv.ast, table)
                for name, inv in self._invariants.items()
            }
            self._program_table = dict(self.functions)
            self._session = None  # cached results may depend on the functions

    def _make_ctx(self, system: ArchSystem) -> EvalContext:
        return EvalContext(
            system, scope=None, bindings=self.bindings, functions=self.functions
        )

    def _verdict(
        self, invariant: Invariant, scope: Optional[Element], ctx: EvalContext
    ) -> Tuple[bool, Optional[str]]:
        """Evaluate one invariant on one scope: ``(ok, error)``."""
        ctx.scope = scope
        self.stats["scopes_evaluated"] += 1
        try:
            value = self._programs[invariant.name].evaluate(ctx)
        except EvaluationError as exc:
            return False, str(exc)
        if not isinstance(value, bool):
            return False, f"invariant must be boolean, got {value!r}"
        return value, None

    def _full_check(self, system: ArchSystem) -> _CheckSession:
        self.stats["full_checks"] += 1
        # capture epochs *before* evaluating so mutations racing the check
        # (from exotic custom functions) surface as dirty next time
        sess = _CheckSession(system)
        sess.epoch = system.epoch
        sess.structure_epoch = system.structure_epoch
        sess.bindings = dict(self.bindings)
        ctx = self._make_ctx(system)
        results = sess.results
        for inv in self.invariants:
            fast_lane = inv.scope_local and inv.scope_type is not None
            for scope in inv._scopes(system):
                slot = len(results)
                ok, error = self._verdict(inv, scope, ctx)
                scope_name = scope.qualified_name if scope is not None else None
                results.append(
                    ConstraintResult(inv.name, ok, scope_name, scope, error)
                )
                if not ok:
                    sess.violated.add(slot)
                if fast_lane:
                    sess.scope_index.setdefault(scope, []).append(slot)
                elif not inv.scope_local:
                    sess.global_slots.append(slot)
                # scope-local + system-scoped: only bindings can move it,
                # and binding changes force a full pass anyway
        self._session = sess
        return sess

    def _incremental_check(
        self, sess: _CheckSession, system: ArchSystem, dirty: List[Element]
    ) -> None:
        self.stats["incremental_checks"] += 1
        epoch = system.epoch
        redo: List[int] = []
        if dirty:
            redo.extend(sess.global_slots)
            scope_index = sess.scope_index
            for element in dirty:
                redo.extend(scope_index.get(element, ()))
        if redo:
            ctx = self._make_ctx(system)
            results = sess.results
            invariants = self._invariants
            violated = sess.violated
            journal = sess.journal
            for slot in redo:
                prior = results[slot]
                ok, error = self._verdict(
                    invariants[prior.invariant], prior.element, ctx
                )
                if ok == prior.ok and error == prior.error:
                    continue  # same verdict: the frozen result stands
                results[slot] = ConstraintResult(
                    prior.invariant, ok, prior.scope, prior.element, error
                )
                journal.add(slot)
                if ok:
                    violated.discard(slot)
                else:
                    violated.add(slot)
        self.stats["scopes_reused"] += len(sess.results) - len(redo)
        sess.epoch = epoch
