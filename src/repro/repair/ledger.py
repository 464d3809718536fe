"""The reservation ledger: what is reserved now, and who waits on it.

Every repair the engine (:mod:`repro.repair.engine`) runs reserves a
footprint from admission to the end of its settle window.  The ledger
indexes those reservations by element name, so "does this footprint
overlap anything reserved?" costs O(|footprint|).

It also keeps admission's state over the checker session it last
followed (:meth:`~repro.constraints.invariants.ConstraintChecker.session`):
the *candidates*, violated slots admission still has to visit, and the
*parked* slots, violations found blocked.  A parked slot waits on one
blocker until the last reservation naming that blocker goes, and is then
released into the candidates.  A blocker is the least element name the
footprint shares with a reservation — never one chosen by string
hashing — or, when no element names it, any universal reservation, or
(for a universal footprint) any reservation at all.

A session's journal has one reader: :meth:`ReservationLedger.follow`
drains it, so the first ledger to follow a session claims it, and a
second ledger following the same session (two engines sharing one
checker) is refused with :class:`~repro.errors.RepairError` rather than
left to miss the slots the first one drained.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import RepairError
from repro.repair.footprint import Footprint

__all__ = ["ReservationLedger"]

#: what a violation parks on when no element names its blocker: any
#: universal reservation, and (for a universal footprint) any reservation
_UNIVERSAL_HELD = object()
_ANY_HELD = object()


class ReservationLedger:
    """The footprints reserved right now, indexed by element name, and the
    admission candidates and parked violations of one checker session.

    ``is_free`` answers "does this footprint overlap any reservation?"
    in O(|footprint|) with :meth:`Footprint.overlaps` semantics: a
    universal footprint on either side overlaps everything (an empty
    reservation included), an empty footprint overlaps only universal
    reservations.
    """

    __slots__ = (
        "by_element",
        "universal",
        "total",
        "session",
        "candidates",
        "waiters",
        "parked",
    )

    def __init__(self) -> None:
        #: element name -> live reservations naming it
        self.by_element: Dict[str, int] = {}
        #: live universal reservations / live reservations of any kind
        self.universal = 0
        self.total = 0
        #: the checker session the slots below number into
        self.session: Optional[Any] = None
        #: violated slots admission still has to visit
        self.candidates: Set[int] = set()
        #: blocker -> slots parked on it / slot -> its blocker
        self.waiters: Dict[object, Set[int]] = {}
        self.parked: Dict[int, object] = {}

    # -- reservations ----------------------------------------------------------
    def add(self, footprint: Footprint) -> None:
        self.total += 1
        if footprint.universal:
            self.universal += 1
            return
        by_element = self.by_element
        for name in footprint.elements:
            by_element[name] = by_element.get(name, 0) + 1

    def remove(self, footprint: Footprint) -> None:
        self.total -= 1
        waiters = self.waiters
        if footprint.universal:
            self.universal -= 1
            if not self.universal and _UNIVERSAL_HELD in waiters:
                self._release(_UNIVERSAL_HELD)
        else:
            by_element = self.by_element
            for name in footprint.elements:
                left = by_element[name] - 1
                if left:
                    by_element[name] = left
                else:
                    del by_element[name]
                    if name in waiters:
                        self._release(name)
        if not self.total and _ANY_HELD in waiters:
            self._release(_ANY_HELD)

    def is_free(self, footprint: Footprint) -> bool:
        if self.universal:
            return False
        if footprint.universal:
            return not self.total
        return self.by_element.keys().isdisjoint(footprint.elements)

    # -- admission state ---------------------------------------------------------
    def follow(self, session) -> None:
        """Bring the candidates up to date with a refreshed session.

        A new session renumbers every slot: each violated one is a
        candidate and nothing is parked.  Otherwise each slot in the
        session's journal (its result moved) is unparked, and is a
        candidate exactly while it is violated.  Raises
        :class:`~repro.errors.RepairError` when another ledger already
        follows ``session`` (module doc).
        """
        candidates = self.candidates
        if session is not self.session:
            if session.reader is not None and session.reader is not self:
                raise RepairError(
                    "a checker session feeds one repair engine; give each "
                    "ArchitectureManager its own ConstraintChecker"
                )
            session.reader = self
            self.session = session
            self.waiters.clear()
            self.parked.clear()
            candidates.clear()
            candidates.update(session.violated)
        elif session.journal:
            violated = session.violated
            for slot in session.journal:
                self.unpark(slot)
                if slot in violated:
                    candidates.add(slot)
                else:
                    candidates.discard(slot)
        session.journal.clear()

    def candidates_in_order(self) -> List[Tuple[int, Any]]:
        """The candidates as ``(slot, result)``, in checker order."""
        results = self.session.results
        return [(slot, results[slot]) for slot in sorted(self.candidates)]

    def park(self, slot: int, footprint: Footprint, quarantined: bool) -> bool:
        """Take ``slot`` off the candidates and park it on one reservation
        ``footprint`` overlaps; False, and nothing parked, when
        ``footprint`` is free or the slot's scope is ``quarantined`` (a
        quarantined violation stays a candidate, so each evaluation
        counts it as skipped)."""
        if quarantined:
            return False
        if self.universal:
            blocker: object = _UNIVERSAL_HELD
        elif footprint.universal:
            if not self.total:
                return False
            blocker = _ANY_HELD
        else:
            held = self.by_element.keys() & footprint.elements
            if not held:
                return False
            blocker = min(held)
        self.waiters.setdefault(blocker, set()).add(slot)
        self.parked[slot] = blocker
        self.candidates.discard(slot)
        return True

    def unpark(self, slot: int) -> None:
        blocker = self.parked.pop(slot, None)
        if blocker is not None:
            waiting = self.waiters[blocker]
            waiting.discard(slot)
            if not waiting:
                del self.waiters[blocker]

    def unpark_scope(self, scope: str) -> None:
        """Make the parked violations of one repair scope candidates."""
        if not self.parked:
            return
        results = self.session.results
        for slot in [s for s in self.parked if (results[s].scope or "") == scope]:
            self.unpark(slot)
            self.candidates.add(slot)

    def _release(self, blocker: object) -> None:
        waiting = self.waiters.pop(blocker)
        parked = self.parked
        for slot in waiting:
            del parked[slot]
        self.candidates |= waiting
