"""The architecture manager: detects violations, runs repairs.

This is Figure 1's item (4): it "determines whether a system's runtime
behavior is within the envelope of acceptable ranges according to the
architecture... and if not, it can adapt the application using a repair
handler.  Repairs are propagated down to the running system."

Operational details mirroring the paper's experiment:

* after a repair finishes, a **settle time** elapses before what it
  touched is re-checked ("the effects of a repair on a system will take
  time", §5.3), which bounds the repair rate and damps oscillation;
* the *first* violated constraint with a registered strategy is repaired
  ("our experiment simply chose to repair the first client that reported
  an error", §7) — or, with ``violation_policy="worst"``, the client
  "experiencing the worst latency first", the smarter selection the paper
  proposes as future work;
* committed model repairs hand their runtime intents to the translator,
  whose execution time (gauge redeployment, Remos queries, RMI calls) is
  the paper's ~30 s repair duration;
* when the same scope keeps violating and every repair attempt aborts,
  the engine raises a **human alert** trace event — the paper's §7 "it
  may be necessary to alert a human observer for manual intervention".
  Alert accounting is keyed *per repair scope* (consecutive-abort counts
  and ``human_alerts_by_scope``), so one noisy scope cannot mask
  another's trouble when several repairs interleave.

**One lifecycle.**  In either concurrency mode a repair holds an
in-flight *token* that reserves a footprint
(:mod:`repro.repair.footprint`) from admission to its settle window:

1. **admit** — a violation starts repairing only when a slot is free and
   its admission footprint overlaps no in-flight repair's footprint and
   no footprint still inside its settle window (settle timers are per
   footprint); otherwise it waits on what blocks it (below);
2. **attempt, then conflict check** — the strategy runs inside a fresh
   model transaction; the admission footprint, widened by its actual
   write set, is re-checked against the other in-flight and settling
   footprints; a late overlap **conflict-aborts** the repair
   (``repair.conflict`` trace event, ``FootprintConflict`` abort reason)
   and rolls the model back — conflicts are scheduling artifacts, so
   they do not count toward human alerts;
3. **translate**, under an optional deadline, then **retry or finish**:
   the token stays reserved across a retry backoff, and finishing
   releases it into a settle window over the footprint it held.

``concurrency`` only picks a policy over that lifecycle:

====================  ========================  ==========================
policy point          ``"serial"`` (default)    ``"disjoint"``
====================  ========================  ==========================
capacity              1                         ``max_concurrent_repairs``
admission footprint   ``Footprint.UNIVERSAL``   the invariant's read scope
taken or settling     ``evaluate`` is a no-op   other scopes still admitted
admitted violation    stays a candidate         parked on its reservation
``record.footprint``  the write set             read scope ∪ write set
``inflight`` / peak   reported as 0             live count / high-water
====================  ========================  ==========================

So the paper's exact scheduling — one repair at a time, then a settle
time before anything is re-checked (§5.3, §7) — is the capacity-1,
whole-model case, bit for bit: a universal settle entry blocks everything.

**What one evaluation costs.**  ``evaluate`` visits *candidates*, not
the violation set: the slots (one per invariant and scope) that the
checker session's journal says newly entered it, and the waiters the
reservation ledger (:mod:`repro.repair.ledger`) released.  The ledger
holds every reservation, kept where a reservation moves: launch, the
release before a retry, finish (in flight → settling, or dropped when
``settle_time`` is 0) and settle expiry.  A violation it blocks is
parked there on its blocker, and so is one just admitted, on its own
reservation; a parked slot whose result moved, or whose scope is put in
quarantine, is a candidate again, and a new session (a structural
change, say) makes every violated slot one.  Violations deferred by
capacity, quarantined, erring or unhandled stay candidates, so
``quarantine_skips`` and the ``constraint.error`` /
``constraint.violation.unhandled`` traces keep their per-evaluation
meaning; candidates are visited in checker order (severity order under
``worst``), as the whole scan visited them.  The scan over the
reservations runs only after a ledger hit, to name the collision in the
``repair.conflict`` trace.  Settle windows expire from the head of a
deque: one ``settle_time`` per engine and a monotonic clock keep it in
expiry order (asserted on append).  Under the serial policy the ledger
holds universal entries and nothing parks: ``evaluate`` runs only when
it is empty.

**Resilient execution.**  With the fault plane able to make effectors
raise, no-op, or hang, the engine optionally runs repairs *two-phase*:
the model transaction stays open while the translator executes the
runtime intents, and only a successful completion commits it.  Any of
``repair_timeout``, ``retry_policy``, ``breaker_policy``, or
``quarantine_policy`` switches this on; with all four at their ``None``
defaults the original schedule is preserved bit for bit (commit before
translation, same trace events, same event times):

* ``repair_timeout`` — a sim-time deadline per attempt; expiry aborts
  the open transaction (undo log restores the model) and frees the
  repair's token, the only escape from a hung effector;
* ``retry_policy`` — a failed attempt (effector error or timeout) is
  re-tried after seeded exponential backoff, re-checking first that the
  violation still holds; each attempt is its own history record with
  ``attempt``/``retry_backoff`` recorded;
* ``breaker_policy`` — per-(tactic, scope) circuit breakers: K
  consecutive runtime failures open the breaker, making the tactic
  non-applicable on that scope so strategies fall through to their next
  tactic or abort into the human-alert escalation; a half-open probe
  after the reset timeout closes it again on success;
* ``quarantine_policy`` — a scope whose repairs keep failing is skipped
  by evaluation for a growing period (graceful degradation instead of
  hot-looping) and re-admitted when the period lapses.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.acme.system import ArchSystem
from repro.constraints.invariants import ConstraintChecker, ConstraintResult
from repro.errors import RepairAborted, RepairError
from repro.repair.context import RepairContext, RuntimeView
from repro.repair.footprint import Footprint
from repro.repair.history import RepairHistory, RepairRecord
from repro.repair.ledger import ReservationLedger
from repro.repair.resilience import (
    BreakerPolicy,
    CircuitBreakerBank,
    QuarantinePolicy,
    RetryPolicy,
)
from repro.repair.strategy import RepairStrategy
from repro.repair.transactions import ModelTransaction
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.util.rng import derive_rng

__all__ = ["ArchitectureManager", "RepairRecord", "check_engine_policy"]


def check_engine_policy(
    violation_policy="first",
    concurrency="serial",
    max_concurrent_repairs=1,
    settle_time=0.0,
    failed_repair_cost=0.0,
) -> None:
    """The engine's policy checks; a scenario's params block runs them too."""
    if violation_policy not in ("first", "worst"):
        raise RepairError(
            f"violation_policy must be 'first' or 'worst', got {violation_policy!r}"
        )
    if concurrency not in ("serial", "disjoint"):
        raise RepairError(
            f"concurrency must be 'serial' or 'disjoint', got {concurrency!r}"
        )
    if max_concurrent_repairs < 1:
        raise RepairError(
            f"max_concurrent_repairs must be >= 1, got {max_concurrent_repairs}"
        )
    # both are waits the engine schedules: a negative one would be in the past
    for name, seconds in (
        ("settle_time", settle_time),
        ("failed_repair_cost", failed_repair_cost),
    ):
        if not seconds >= 0:
            raise RepairError(f"{name} must be >= 0, got {seconds}")


class _InflightRepair:
    """Bookkeeping for one admitted (not yet finished) repair."""

    __slots__ = ("record", "footprint")

    def __init__(self, record: RepairRecord, footprint: Footprint):
        self.record = record
        self.footprint = footprint


class ArchitectureManager:
    """Constraint evaluation + repair dispatch + repair lifecycle."""

    def __init__(
        self,
        sim: Simulator,
        system: ArchSystem,
        checker: ConstraintChecker,
        translator=None,
        runtime: Optional[RuntimeView] = None,
        operators: Optional[Dict[str, Callable[..., Any]]] = None,
        trace: Optional[Trace] = None,
        settle_time: float = 20.0,
        failed_repair_cost: float = 2.0,
        violation_policy: str = "first",
        alert_after_aborts: int = 5,
        concurrency: str = "serial",
        max_concurrent_repairs: int = 8,
        repair_timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        quarantine_policy: Optional[QuarantinePolicy] = None,
        history_capacity: Optional[int] = None,
    ):
        check_engine_policy(
            violation_policy,
            concurrency,
            max_concurrent_repairs,
            settle_time,
            failed_repair_cost,
        )
        self.sim = sim
        self.system = system
        self.checker = checker
        self.translator = translator
        self.runtime = runtime
        self.operators = dict(operators or {})
        self.trace = trace if trace is not None else Trace()
        self.settle_time = float(settle_time)
        self.failed_repair_cost = float(failed_repair_cost)
        self.violation_policy = violation_policy
        self.alert_after_aborts = int(alert_after_aborts)
        self.concurrency = concurrency
        self.max_concurrent_repairs = int(max_concurrent_repairs)
        #: the policy over the one lifecycle (module doc); ``_serial`` is
        #: read at the listed policy points and nowhere else
        self._serial = concurrency == "serial"
        self._capacity = 1 if self._serial else self.max_concurrent_repairs
        if repair_timeout is not None and repair_timeout <= 0:
            raise RepairError(
                f"repair_timeout must be positive, got {repair_timeout}"
            )
        if retry_policy is not None:
            retry_policy.validate()
        if quarantine_policy is not None:
            quarantine_policy.validate()
        self.repair_timeout = repair_timeout
        self.retry_policy = retry_policy
        self.quarantine_policy = quarantine_policy
        self.breakers: Optional[CircuitBreakerBank] = (
            CircuitBreakerBank(breaker_policy, sim, trace=self.trace)
            if breaker_policy is not None else None
        )
        #: any resilience option switches commit to two-phase (commit
        #: only after the translator completes); all-None keeps the
        #: original commit-then-translate schedule bit for bit
        self._two_phase = (
            repair_timeout is not None
            or retry_policy is not None
            or breaker_policy is not None
            or quarantine_policy is not None
        )
        self._retry_rng = (
            derive_rng(retry_policy.seed, "repair.retry")
            if retry_policy is not None else None
        )

        self._strategies: Dict[str, RepairStrategy] = {}
        self._consecutive_aborts: Dict[str, int] = {}
        self.human_alerts = 0
        #: per-scope alert counts — scope-keyed so one noisy scope's
        #: aborts cannot mask another's (see module doc)
        self.human_alerts_by_scope: Dict[str, int] = {}
        self.history = RepairHistory(capacity=history_capacity)
        self.evaluations = 0
        self.timeouts = 0
        self.retries = 0
        self.effector_failures = 0
        self.quarantines = 0
        self.quarantine_skips = 0
        self._scope_failures: Dict[str, int] = {}
        self._quarantined: Dict[str, float] = {}
        self._quarantine_rounds: Dict[str, int] = {}

        # scheduler state: in-flight repairs by token, the footprints still
        # inside their settle window as (until, footprint) in expiry order,
        # and the ledger over the footprints of both (which also holds the
        # admission candidates and the violations parked on a reservation)
        self._inflight: Dict[int, _InflightRepair] = {}
        self._settling: Deque[Tuple[float, Footprint]] = deque()
        self._reserved = ReservationLedger()
        self._next_token = 0
        self.conflicts = 0
        self.peak_inflight = 0

    # -- configuration ---------------------------------------------------------
    def register_strategy(self, strategy: RepairStrategy) -> None:
        if strategy.name in self._strategies:
            raise RepairError(f"strategy {strategy.name!r} already registered")
        self._strategies[strategy.name] = strategy

    @property
    def strategies(self) -> List[str]:
        return sorted(self._strategies)

    @property
    def busy(self) -> bool:
        """True while any repair is in flight (across retry backoff too)."""
        return bool(self._inflight)

    @property
    def inflight(self) -> int:
        """Concurrently in-flight repairs; like ``peak_inflight`` it stays
        0 on a serial engine (use :attr:`busy` there)."""
        return 0 if self._serial else len(self._inflight)

    @property
    def constraint_stats(self) -> Dict[str, int]:
        """Checker counters: full vs incremental passes, scopes evaluated
        vs reused (the control-loop overhead ledger)."""
        return dict(self.checker.stats)

    def repair_stats(self) -> Dict[str, int]:
        """Scheduling counters for the repair engine itself."""
        stats = {
            "evaluations": self.evaluations,
            "conflicts": self.conflicts,
            "peak_inflight": self.peak_inflight,
            "human_alerts": self.human_alerts,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "effector_failures": self.effector_failures,
            "quarantines": self.quarantines,
            "quarantine_skips": self.quarantine_skips,
            "quarantined_now": len(self._live_quarantines()),
            "history_evicted": self.history.evicted,
        }
        if self.breakers is not None:
            stats.update(self.breakers.stats())
        return stats

    def quarantined_scopes(self) -> Dict[str, float]:
        """Scopes currently quarantined → sim time their period lapses."""
        return dict(self._live_quarantines())

    def _live_quarantines(self) -> Dict[str, float]:
        """Drop the entries whose period lapsed; the rest are in force."""
        now = self.sim.now
        for scope in [s for s, until in self._quarantined.items() if until <= now]:
            del self._quarantined[scope]
        return self._quarantined

    # -- the adaptation loop entry point ------------------------------------------
    def evaluate(self, full: bool = False) -> Optional[RepairRecord]:
        """Check constraints; dispatch a repair for the first violation.

        Returns the started :class:`RepairRecord`, or None when the model
        is healthy, the manager is busy/settling, or no strategy applies.
        What a call visits is in the module doc; ``full=True`` forces one
        full re-check (the escape hatch for out-of-band model surgery).

        One call admits every actionable violation that passes the
        admission rule (module doc), up to the capacity, and returns the
        first record started.  At capacity — and, under the serial policy,
        while settling — the call returns None uncounted.
        """
        if len(self._inflight) >= self._capacity:
            return None
        self._expire_settles()
        if self._serial and self._settling:
            return None
        self.evaluations += 1
        self._sync(full)
        # A whole-model admission takes everything, so under "first" the
        # scan can stop at the violation it is about to admit.
        actionable = self._actionable(
            stop_after_first=self._serial and self.violation_policy == "first",
        )
        if self.violation_policy == "worst":
            actionable.sort(key=lambda pair: self._severity(pair[1]), reverse=True)
        started: List[RepairRecord] = []
        for slot, violation in actionable:
            if len(self._inflight) >= self._capacity:
                break
            admission = self._admission_footprint(violation)
            if not self._reserved.is_free(admission):
                self._park(slot, violation, admission)
                continue
            invariant = self.checker.invariant(violation.invariant)
            strategy = self._strategies[invariant.repair]
            started.append(self._start_repair(violation, strategy, admission))
            if not self._serial:
                # its own reservation blocks it now
                self._park(slot, violation, admission)
        return started[0] if started else None

    def _sync(self, full: bool = False):
        """Refresh the checker session; the ledger follows its journal."""
        sess = self.checker.session(self.system, full)
        self._reserved.follow(sess)
        return sess

    def _park(
        self, slot: int, violation: ConstraintResult, admission: Footprint
    ) -> None:
        self._reserved.park(
            slot, admission, (violation.scope or "") in self._quarantined
        )

    def _admission_footprint(self, violation: ConstraintResult) -> Footprint:
        """What a violation must find free to be admitted: the whole model
        under the serial policy, else its invariant's read scope.

        A scope-local, type-scoped invariant reads exactly its scope
        element; any other (system-scoped, quantified, graph-reading)
        conservatively reads the whole model.
        """
        if self._serial:
            return Footprint.UNIVERSAL
        invariant = self.checker.invariant(violation.invariant)
        if (
            invariant.scope_local
            and invariant.scope_type is not None
            and violation.element is not None
        ):
            return Footprint.of((violation.scope,))
        return Footprint.UNIVERSAL

    def _actionable(
        self, stop_after_first: bool
    ) -> List[Tuple[int, ConstraintResult]]:
        """Candidate violations with a registered strategy, as
        ``(slot, result)`` in checker order.

        Errors and unhandled violations are traced and skipped; with
        ``stop_after_first`` the scan stops at the first actionable one
        (the serial policy's ``violation_policy="first"`` short-circuit).
        Skipped violations stay candidates.
        """
        actionable: List[Tuple[int, ConstraintResult]] = []
        quarantined = self._live_quarantines()
        for slot, result in self._reserved.candidates_in_order():
            if result.error is not None:
                self.trace.emit(
                    self.sim.now, "constraint.error",
                    invariant=result.invariant, scope=result.scope,
                    error=result.error,
                )
                continue
            if quarantined and (result.scope or "") in quarantined:
                self.quarantine_skips += 1
                continue
            invariant = self.checker.invariant(result.invariant)
            if invariant.repair is None or invariant.repair not in self._strategies:
                self.trace.emit(
                    self.sim.now, "constraint.violation.unhandled",
                    invariant=result.invariant, scope=result.scope,
                )
                continue
            actionable.append((slot, result))
            if stop_after_first:
                break
        return actionable

    @staticmethod
    def _severity(result: ConstraintResult) -> float:
        """How bad a violation is: the scope's latency signal when known.

        Implements the paper's §7 proposal of "fixing the client that is
        experiencing the worst latency first".  ``averageLatency`` is the
        client/server style's signal; styles without it (e.g. the
        multi-tenant pools) rank by their plain ``latency`` property.
        Violations with neither rank at zero (repaired only when nothing
        worse exists).
        """
        element = result.element
        if element is not None:
            for name in ("averageLatency", "latency"):
                if element.has_property(name):
                    value = element.get_property(name)
                    if isinstance(value, (int, float)):
                        return float(value)
        return 0.0

    # -- repair lifecycle ----------------------------------------------------------
    def _attempt(
        self,
        violation: ConstraintResult,
        strategy: RepairStrategy,
        attempt: int = 1,
    ):
        """Run one strategy inside a fresh transaction.

        Returns ``(record, txn, ctx, outcome)``; ``outcome`` is None when
        the strategy aborted (transaction already rolled back, abort
        traced and counted) — the caller owns the scheduling.
        """
        record = RepairRecord(
            started=self.sim.now,
            strategy=strategy.name,
            invariant=violation.invariant,
            scope=violation.scope,
            attempt=attempt,
        )
        self.trace.emit(
            self.sim.now, "repair.start",
            strategy=strategy.name, invariant=violation.invariant,
            scope=violation.scope,
        )
        txn = ModelTransaction(self.system).begin()
        bindings = dict(self.checker.bindings)
        bindings["__strategy_args__"] = [violation.element]
        ctx = RepairContext(
            self.system,
            runtime=self.runtime,
            bindings=bindings,
            functions={**self.checker.functions, **self.operators},
            transaction=txn,
        )
        ctx.breakers = self.breakers
        ctx.repair_scope = violation.scope or ""
        try:
            outcome = strategy.run(ctx)
        except RepairAborted as abort:
            txn.abort()
            record.abort_reason = abort.reason
            self.trace.emit(
                self.sim.now, "repair.abort",
                strategy=strategy.name, reason=abort.reason,
            )
            self._note_abort(violation)
            return record, txn, ctx, None
        except Exception:
            txn.abort()
            raise
        return record, txn, ctx, outcome

    def _commit(self, record, txn, ctx, outcome, violation, footprint) -> None:
        """Commit the transaction and fill in the record."""
        self._consecutive_aborts.pop(violation.scope or "", None)
        record.footprint = footprint
        record.tactic_footprints = list(ctx.tactic_footprints)
        txn.commit()
        record.committed = True
        record.tactic_applied = outcome.tactic_applied
        record.tactics_tried = list(outcome.tactics_tried)
        record.intents = list(ctx.intents)
        self.trace.emit(
            self.sim.now, "repair.committed",
            strategy=record.strategy, tactic=outcome.tactic_applied,
            intents=len(ctx.intents),
        )

    def _start_repair(
        self,
        violation: ConstraintResult,
        strategy: RepairStrategy,
        admission: Footprint,
        attempt: int = 1,
    ) -> RepairRecord:
        """Run one attempt of an admitted repair.  ``admission``, the
        footprint it was admitted under, stays reserved when the attempt
        aborts and is widened by the transaction's write set otherwise."""
        record, txn, ctx, outcome = self._attempt(
            violation, strategy, attempt=attempt
        )
        if outcome is None:
            # Strategy-stage abort: no tactic ran, so there is nothing to
            # retry — only the quarantine ledger advances (no-op when off).
            self._scope_failure(violation)
            self._launch(record, admission, delay=self.failed_repair_cost)
            return record

        # The actual write set, read *before* any abort replays undos
        # (and while the transaction is still open).
        touched = txn.touched()
        footprint = admission.union(touched)
        conflict = self._find_conflict(footprint)
        if conflict is not None:
            txn.abort()
            self.conflicts += 1
            record.abort_reason = "FootprintConflict"
            with_strategy, with_scope = conflict
            self.trace.emit(
                self.sim.now, "repair.conflict",
                strategy=strategy.name, scope=violation.scope,
                with_strategy=with_strategy, with_scope=str(with_scope),
            )
            self.trace.emit(
                self.sim.now, "repair.abort",
                strategy=strategy.name, reason="FootprintConflict",
            )
            # NOT _note_abort: a conflict is a scheduling artifact, not a
            # failed repair of this scope — it must not trip human alerts.
            self._launch(record, admission, delay=self.failed_repair_cost)
            return record

        # The footprint stays reserved until the repair finishes.  What
        # the record reports is the write set under the serial policy
        # (its reservation is always the whole model) and the reserved
        # read ∪ write footprint otherwise.
        token = self._launch(record, footprint)
        reported = touched if self._serial else footprint
        if not self._two_phase:
            self._commit(record, txn, ctx, outcome, violation, reported)
        state = {"settled": False}

        def completed(error=None):
            if state["settled"]:
                return
            state["settled"] = True
            if error is not None and self._two_phase:
                self._runtime_failure(
                    token, record, txn, ctx, outcome, violation, strategy,
                    str(error), attempt,
                )
                return
            if error is not None:
                self._translation_error(record, str(error))
            elif self._two_phase:
                # commit happens only now that translation completed
                self._commit(record, txn, ctx, outcome, violation, reported)
                self._repair_succeeded(violation, outcome)
            self._finish(token)

        if self.repair_timeout is not None:

            def deadline():
                if state["settled"]:
                    return
                record.timed_out = True
                self.timeouts += 1
                self.trace.emit(
                    self.sim.now, "repair.timeout",
                    strategy=strategy.name, scope=violation.scope,
                    attempt=attempt,
                )
                completed("Timeout")

            self.sim.schedule(self.repair_timeout, deadline)
        if self.translator is not None and ctx.intents:
            self.translator.execute(ctx.intents, on_done=completed)
        else:
            self.sim.schedule(0.0, completed)
        return record

    def _translation_error(self, record: RepairRecord, reason: str) -> None:
        """A fault-wrapped translator failed after a one-phase commit.

        The model change is already committed, so the run continues with
        a model/runtime divergence the gauges must re-detect; the event
        is traced and counted so results show it happened.
        """
        self.effector_failures += 1
        self.trace.emit(
            self.sim.now, "repair.effector_failure",
            strategy=record.strategy, reason=reason,
        )

    def _repair_succeeded(self, violation: ConstraintResult, outcome) -> None:
        """Clear resilience ledgers after a fully-translated commit."""
        scope = violation.scope or ""
        self._scope_failures.pop(scope, None)
        self._quarantine_rounds.pop(scope, None)
        if self.breakers is not None and outcome.tactic_applied:
            self.breakers.record_success(outcome.tactic_applied, scope)

    def _runtime_failure(
        self, token, record, txn, ctx, outcome, violation, strategy, reason,
        attempt,
    ) -> None:
        """An applied repair failed at runtime (effector error or timeout).

        Aborts the open transaction (undo log restores the model), feeds
        the breaker and alert ledgers, then either schedules a retry
        (the token keeps its footprint reserved across the backoff) or
        concludes the repair with quarantine accounting.
        """
        txn.abort()
        record.abort_reason = reason
        record.tactic_applied = outcome.tactic_applied
        record.tactics_tried = list(outcome.tactics_tried)
        record.intents = list(ctx.intents)
        self.trace.emit(
            self.sim.now, "repair.abort",
            strategy=strategy.name, reason=reason,
        )
        self._note_abort(violation)
        scope = violation.scope or ""
        if self.breakers is not None and outcome.tactic_applied:
            self.breakers.record_failure(outcome.tactic_applied, scope)
        policy = self.retry_policy
        if policy is not None and attempt < policy.max_attempts:
            backoff = policy.backoff_for(attempt + 1, self._retry_rng)
            record.retry_backoff = backoff
            record.ended = self.sim.now
            self.retries += 1
            self.trace.emit(
                self.sim.now, "repair.retry",
                strategy=strategy.name, scope=violation.scope,
                attempt=attempt + 1, backoff=backoff,
            )
            self.history.append(record)
            self.sim.schedule(
                backoff, self._retry, token, violation, strategy, attempt + 1
            )
            return
        self._scope_failure(violation)
        self._finish(token)

    def _violation_still_active(
        self, violation: ConstraintResult
    ) -> Optional[ConstraintResult]:
        """Re-check one (invariant, scope) before a retry attempt runs:
        its result among the incremental session's violated slots, or
        None when it holds no more (or errs)."""
        sess = self._sync()
        results = sess.results
        for slot in sess.violated:
            result = results[slot]
            if (
                result.invariant == violation.invariant
                and result.scope == violation.scope
            ):
                return result if result.error is None else None
        return None

    def _retry(
        self, token: int, violation: ConstraintResult,
        strategy: RepairStrategy, attempt: int,
    ) -> None:
        # Release the reserved footprint first; the new attempt's conflict
        # check runs against whatever is in flight or still settling *now*
        # (this call comes from the scheduler, not through ``evaluate``).
        self._reserved.remove(self._inflight.pop(token).footprint)
        self._expire_settles()
        found = self._violation_still_active(violation)
        if found is None:
            self.trace.emit(
                self.sim.now, "repair.retry_skip",
                invariant=violation.invariant, scope=violation.scope,
            )
            return
        self._start_repair(
            found, strategy, self._admission_footprint(found), attempt=attempt
        )

    def _scope_failure(self, violation: ConstraintResult) -> None:
        """Quarantine accounting for one concluded-failed repair."""
        policy = self.quarantine_policy
        if policy is None:
            return
        scope = violation.scope or ""
        count = self._scope_failures.get(scope, 0) + 1
        self._scope_failures[scope] = count
        if count >= policy.after_failures:
            rounds = self._quarantine_rounds.get(scope, 0)
            period = policy.period_for(rounds)
            self._quarantined[scope] = self.sim.now + period
            self._quarantine_rounds[scope] = rounds + 1
            self._scope_failures[scope] = 0
            self.quarantines += 1
            self.trace.emit(
                self.sim.now, "repair.quarantine",
                scope=scope, until=self.sim.now + period, round=rounds + 1,
            )
            # its parked violations are counted as skipped from now on
            self._reserved.unpark_scope(scope)

    # -- footprint scheduling ---------------------------------------------------
    def _expire_settles(self) -> None:
        now = self.sim.now
        settling = self._settling
        while settling and settling[0][0] <= now:
            self._reserved.remove(settling.popleft()[1])

    def _find_conflict(self, footprint: Footprint):
        """Who a footprint collides with: an in-flight repair, a footprint
        still settling, or nobody.

        Asked at admission and again once the write set is known: a
        strategy whose writes escaped its admission footprint must not
        commit into an element another repair is executing against — or
        one inside a settle window, whose gauges are blind/stale by
        definition.  Returns the collision's ``(strategy, scope)``, or
        ``("settling", footprint)`` for a settle-window hit, or None.
        The ledger answers "nobody" in O(|footprint|); only a hit pays
        for the scan that names the collision.
        """
        if self._reserved.is_free(footprint):
            return None
        for entry in self._inflight.values():
            if footprint.overlaps(entry.footprint):
                return entry.record.strategy, entry.record.scope
        for _, settling in self._settling:
            if footprint.overlaps(settling):
                return "settling", settling
        raise AssertionError(f"ledger reserves {footprint} but no entry holds it")

    def _launch(
        self,
        record: RepairRecord,
        footprint: Footprint,
        delay: Optional[float] = None,
    ) -> int:
        """Register an in-flight entry; schedule its finish when given a
        fixed ``delay`` (abort paths); committed repairs finish when their
        translator reports done."""
        self._next_token += 1
        token = self._next_token
        self._inflight[token] = _InflightRepair(record, footprint)
        self._reserved.add(footprint)
        if not self._serial:
            self.peak_inflight = max(self.peak_inflight, len(self._inflight))
        if delay is not None:
            self.sim.schedule(delay, self._finish, token)
        return token

    def _finish(self, token: int) -> None:
        """Close a repair: release its token into a settle window."""
        entry = self._inflight.pop(token)
        record = entry.record
        record.ended = self.sim.now
        self.history.append(record)
        if self.settle_time > 0:
            # the reservation carries over from in flight to settling;
            # one settle_time per engine keeps the deque in expiry order
            until = self.sim.now + self.settle_time
            assert not self._settling or self._settling[-1][0] <= until
            self._settling.append((until, entry.footprint))
        else:
            self._reserved.remove(entry.footprint)
        self.trace.emit(
            self.sim.now, "repair.end",
            strategy=record.strategy, committed=record.committed,
            duration=record.duration,
        )

    def _note_abort(self, violation: ConstraintResult) -> None:
        """Track repeated failures on one scope; alert a human when no
        repair improves the situation (paper §7).  Counting is keyed by
        repair scope so concurrent aborts on one scope never mask
        another scope's trouble."""
        key = violation.scope or ""
        count = self._consecutive_aborts.get(key, 0) + 1
        self._consecutive_aborts[key] = count
        if count == self.alert_after_aborts:
            self.human_alerts += 1
            self.human_alerts_by_scope[key] = (
                self.human_alerts_by_scope.get(key, 0) + 1
            )
            self.trace.emit(
                self.sim.now, "repair.human_alert",
                scope=violation.scope, invariant=violation.invariant,
                consecutive_aborts=count,
            )
            self._consecutive_aborts[key] = 0
