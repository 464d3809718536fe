"""Transactional editing of architectural models.

Implements Figure 5's ``commit repair`` / ``abort`` semantics: while a
transaction is active it records the undo closure of every model mutation
(see :meth:`repro.acme.system.ArchSystem.on_mutation`); ``abort`` replays
the undos in reverse; ``commit`` discards them.  **Savepoints** support
tactic-level rollback — a failing tactic must not leave half its edits in
the model while the strategy tries the next tactic.

A transaction also knows **which elements it touched**: :meth:`touched`
derives the write set from the system's change epochs (captured at
``begin``), which is what the concurrent repair engine uses as the
repair's write footprint (see :mod:`repro.repair.footprint`).
"""

from __future__ import annotations

from typing import Callable, List

from repro.acme.system import ArchSystem
from repro.errors import TransactionError
from repro.repair.footprint import Footprint, touched_since

__all__ = ["ModelTransaction"]


class ModelTransaction:
    """One active editing session against an :class:`ArchSystem`.

    Usage::

        txn = ModelTransaction(system)
        txn.begin()
        try:
            ... edit the model ...
            txn.commit()
        except SomethingWrong:
            txn.abort()
    """

    def __init__(self, system: ArchSystem):
        self.system = system
        self._undo: List[Callable[[], None]] = []
        self._active = False
        self._closed = False
        self._begin_epoch = system.epoch
        self._begin_structure_epoch = system.structure_epoch
        system.on_mutation(self._record)

    # The listener is removed again on commit/abort, so mutation dispatch
    # cost tracks *active* transactions (at most max_concurrent_repairs),
    # not every repair the run has ever made.

    def _record(self, description: str, undo: Callable[[], None]) -> None:
        if self._active:
            self._undo.append(undo)

    def record(self, description: str, undo: Callable[[], None]) -> None:
        """Manually journal an undo (for edits the system cannot observe,
        e.g. inside a component's representation sub-architecture)."""
        self._require_active()
        self._undo.append(undo)

    # -- lifecycle ----------------------------------------------------------
    @property
    def recorded(self) -> int:
        return len(self._undo)

    def begin(self) -> "ModelTransaction":
        if self._closed:
            raise TransactionError("transaction already finished")
        if self._active:
            raise TransactionError("transaction already active")
        self._active = True
        self._begin_epoch = self.system.epoch
        self._begin_structure_epoch = self.system.structure_epoch
        return self

    def touched(self) -> Footprint:
        """The elements mutated since ``begin`` (the write footprint).

        Property writes name their element exactly; structural mutations
        (or an overflowed change log) widen the answer to
        :attr:`~repro.repair.footprint.Footprint.UNIVERSAL`.  Valid while
        the transaction is active *and* after it closes — an aborted
        transaction's undos bump the epochs further, so callers needing
        the pre-abort write set must read it before aborting.
        """
        return touched_since(
            self.system, self._begin_epoch, self._begin_structure_epoch
        )

    def commit(self) -> int:
        """Keep all edits; returns how many mutations were recorded."""
        self._require_active()
        count = len(self._undo)
        self._undo.clear()
        self._active = False
        self._closed = True
        self.system.remove_mutation_listener(self._record)
        return count

    def abort(self) -> int:
        """Undo all edits in reverse order; returns how many were undone."""
        self._require_active()
        count = len(self._undo)
        self._rollback(0)
        self._active = False
        self._closed = True
        self.system.remove_mutation_listener(self._record)
        return count

    # -- savepoints ----------------------------------------------------------
    def mark(self) -> int:
        """Return a savepoint token (undo-stack depth)."""
        self._require_active()
        return len(self._undo)

    def rollback_to(self, mark: int) -> int:
        """Undo everything recorded after ``mark``; returns count undone."""
        self._require_active()
        if mark < 0 or mark > len(self._undo):
            raise TransactionError(f"invalid savepoint {mark}")
        count = len(self._undo) - mark
        self._rollback(mark)
        return count

    def _rollback(self, upto: int) -> None:
        # Undo closures themselves trigger mutations; suspend recording.
        self._active = False
        try:
            while len(self._undo) > upto:
                self._undo.pop()()
        finally:
            if not self._closed:
                self._active = True

    def _require_active(self) -> None:
        if not self._active:
            raise TransactionError("no active transaction")
