"""The repair engine's scan-every-violation admission.

``ArchitectureManager.evaluate`` used to read the checker's whole violation
list at every evaluation, rebuild each violation's read footprint, and
ask the reservation ledger about every one of them again, although
nothing a blocked violation overlaps may have been released since.  It
now visits only candidates: violations that newly entered the violated
set and waiters the ledger released.  ``ScanAdmissionManager`` keeps the
scan, verbatim, over the production lifecycle (launch, attempt, conflict
check, translate, retry, finish, settle), so
``tests/test_admission_oracle.py`` can drive both engines through the
same seeded script and compare every step.  Its retry re-check is the
forced full constraint pass the production engine replaced too.
"""

from __future__ import annotations

from typing import List, Optional

from repro.constraints.invariants import ConstraintResult
from repro.repair.engine import ArchitectureManager, RepairRecord
from repro.repair.footprint import Footprint

__all__ = ["ScanAdmissionManager"]


def read_footprint(invariant, scope) -> Footprint:
    """``Invariant.read_footprint``: what re-checking the invariant for
    ``scope`` may read — exactly the scope element when scope-local and
    type-scoped, else the whole model."""
    if invariant.scope_local and invariant.scope_type is not None and scope is not None:
        return Footprint.of((scope.qualified_name,))
    return Footprint.UNIVERSAL


class ScanAdmissionManager(ArchitectureManager):
    """An engine that re-scans every violation at every evaluation."""

    def evaluate(self, full: bool = False) -> Optional[RepairRecord]:
        if len(self._inflight) >= self._capacity:
            return None
        self._expire_settles()
        if self._serial and self._settling:
            return None
        self.evaluations += 1
        actionable = self._scan(
            full,
            stop_after_first=self._serial and self.violation_policy == "first",
        )
        if self.violation_policy == "worst":
            actionable.sort(key=self._severity, reverse=True)
        started: List[RepairRecord] = []
        for violation in actionable:
            if len(self._inflight) >= self._capacity:
                break
            admission = self._admission_footprint(violation)
            if not self._reserved.is_free(admission):
                continue
            invariant = self.checker.invariant(violation.invariant)
            strategy = self._strategies[invariant.repair]
            started.append(self._start_repair(violation, strategy, admission))
        return started[0] if started else None

    def _admission_footprint(self, violation: ConstraintResult) -> Footprint:
        if self._serial:
            return Footprint.UNIVERSAL
        invariant = self.checker.invariant(violation.invariant)
        return read_footprint(invariant, violation.element)

    def _scan(self, full: bool, stop_after_first: bool) -> List[ConstraintResult]:
        actionable: List[ConstraintResult] = []
        quarantined = self._live_quarantines()
        for result in self.checker.violations(self.system, full=full):
            if result.error is not None:
                self.trace.emit(
                    self.sim.now,
                    "constraint.error",
                    invariant=result.invariant,
                    scope=result.scope,
                    error=result.error,
                )
                continue
            if quarantined and (result.scope or "") in quarantined:
                self.quarantine_skips += 1
                continue
            invariant = self.checker.invariant(result.invariant)
            if invariant.repair is None or invariant.repair not in self._strategies:
                self.trace.emit(
                    self.sim.now,
                    "constraint.violation.unhandled",
                    invariant=result.invariant,
                    scope=result.scope,
                )
                continue
            actionable.append(result)
            if stop_after_first:
                break
        return actionable

    def _violation_still_active(
        self, violation: ConstraintResult
    ) -> Optional[ConstraintResult]:
        for result in self.checker.violations(self.system, full=True):
            if (
                result.error is None
                and result.invariant == violation.invariant
                and result.scope == violation.scope
            ):
                return result
        return None
