"""Cross-shard repair coordination over per-shard repair engines.

Each shard runs its own :class:`ArchitectureManager` against its own
slice of the model, so shard-local repairs proceed with **zero**
coordination — the common case, and the whole point of sharding.  The
:class:`ShardCoordinator` is every runtime's manager, one shard or
many, and exists for the rest:

* it presents the *aggregate* manager surface the runtime and the
  metrics samplers expect (``busy`` / ``inflight`` / ``evaluations`` /
  ``repair_stats()`` / merged ``history`` / ``breakers``), summing or
  merging over the per-shard engines (over one engine: that engine's
  own); and
* it runs cross-shard repairs through a two-phase, footprint-locked
  path reusing the same undo-log transactions the engines use.

Admission reuses PR 4's :class:`~repro.repair.footprint.Footprint` as
the lock key: :meth:`submit_cross` maps the declared footprint onto the
shards that own its elements, refuses admission while any of them is
busy or locked (a *conflict abort*, counted, never blocking), then
opens one :class:`~repro.repair.transactions.ModelTransaction` per
shard, applies the mutation, and verifies the write set stayed inside
the declared shard set — an escaped write aborts **all** shard
transactions in reverse order, restoring every slice.  Committed or
aborted, the affected shards stay locked until ``settle_time`` elapses,
deferring their local evaluation loops exactly like the disjoint
engine's settling windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.repair.engine import ArchitectureManager
from repro.repair.footprint import Footprint
from repro.repair.history import RepairHistory, RepairRecord
from repro.repair.transactions import ModelTransaction
from repro.sim.kernel import Simulator

__all__ = ["ShardCoordinator", "CrossRepairOutcome"]


@dataclass(frozen=True)
class CrossRepairOutcome:
    """Result of one cross-shard submission."""

    committed: bool
    shards: Tuple[int, ...]
    reason: Optional[str] = None


class _ShardEvaluator:
    """Single-shard facade handed to that shard's property updater."""

    def __init__(self, coordinator: "ShardCoordinator", shard: int):
        self._coordinator = coordinator
        self._shard = shard

    def evaluate(self, full: bool = False) -> Optional[RepairRecord]:
        return self._coordinator.evaluate_shard(self._shard, full=full)


class ShardCoordinator:
    """Aggregate view + cross-shard two-phase commit over shard engines.

    ``model`` is the :class:`~repro.acme.sharding.ShardedArchSystem`
    whose per-shard systems the ``managers`` operate on (index-aligned).
    ``max_lock_shards`` caps how many shards one cross-shard repair may
    lock (0 = unlimited); ``settle_time`` is how long affected shards
    stay locked after a cross-shard attempt, mirroring the engines' own
    settle windows.
    """

    def __init__(
        self,
        sim: Simulator,
        model,
        managers: List[ArchitectureManager],
        trace=None,
        settle_time: float = 20.0,
        max_lock_shards: int = 0,
    ):
        if not managers:
            raise ValueError("ShardCoordinator needs at least one manager")
        self.sim = sim
        self.model = model
        self.managers = list(managers)
        self.trace = trace
        self.settle_time = settle_time
        self.max_lock_shards = max_lock_shards
        #: shard index -> sim time its cross-shard lock expires
        self._locks: Dict[int, float] = {}
        self.cross_commits = 0
        self.cross_aborts = 0
        self.cross_rejects = 0
        #: shard evaluations skipped because the shard was lock-settling
        self.deferrals = 0
        #: peak *total* concurrent repairs across all shards
        self.peak_inflight = 0

    # -- aggregate manager surface -----------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.managers)

    @property
    def busy(self) -> bool:
        for manager in self.managers:
            if manager.busy:
                return True
        return bool(self._live_locks())

    @property
    def breakers(self):
        """The engine's breaker bank on one shard; several engines' banks
        have no rollup, so None."""
        return self.managers[0].breakers if len(self.managers) == 1 else None

    @property
    def inflight(self) -> int:
        return sum(m.inflight for m in self.managers)

    @property
    def evaluations(self) -> int:
        return sum(m.evaluations for m in self.managers)

    @property
    def operators(self):
        return self.managers[0].operators

    @property
    def constraint_stats(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for manager in self.managers:
            for key, value in manager.constraint_stats.items():
                out[key] = out.get(key, 0) + value
        return out

    @property
    def history(self) -> RepairHistory:
        """Merged per-shard histories ordered by start time (stable); one
        shard's is the engine's own, in the order its repairs finished."""
        if len(self.managers) == 1:
            return self.managers[0].history
        merged = RepairHistory()
        records: List[Tuple[float, int, int, RepairRecord]] = []
        for shard, manager in enumerate(self.managers):
            for idx, record in enumerate(manager.history):
                records.append((record.started, shard, idx, record))
        records.sort(key=lambda item: (item[0], item[1], item[2]))
        for _, _, _, record in records:
            merged.append(record)
        return merged

    def repair_stats(self) -> Dict[str, int]:
        """Key-wise rollup of the shard engines plus coordinator counters.

        ``peak_inflight`` is the coordinator-level peak (total repairs in
        flight at once across shards), not the sum of per-shard peaks —
        that is the number the throughput claim is about.  One shard has
        nothing to roll up: its stats are the engine's own.
        """
        if len(self.managers) == 1:
            return self.managers[0].repair_stats()
        stats: Dict[str, int] = {}
        for manager in self.managers:
            for key, value in manager.repair_stats().items():
                if key == "peak_inflight":
                    continue
                stats[key] = stats.get(key, 0) + value
        stats["peak_inflight"] = self.peak_inflight
        stats["shards"] = len(self.managers)
        stats["cross_commits"] = self.cross_commits
        stats["cross_aborts"] = self.cross_aborts
        stats["cross_rejects"] = self.cross_rejects
        stats["deferrals"] = self.deferrals
        return stats

    def shard_proxy(self, shard: int) -> _ShardEvaluator:
        """The per-shard ``arch_manager`` handed to that shard's updater."""
        return _ShardEvaluator(self, shard)

    # -- evaluation --------------------------------------------------------
    def evaluate_shard(self, shard: int, full: bool = False):
        """Run one shard's local loop unless it is lock-settling."""
        if self._locked(shard):
            self.deferrals += 1
            return None
        record = self.managers[shard].evaluate(full=full)
        self._note_inflight()
        return record

    def evaluate(self, full: bool = False):
        """Sweep every shard's local loop; returns the first record."""
        first = None
        for shard in range(len(self.managers)):
            record = self.evaluate_shard(shard, full=full)
            if first is None:
                first = record
        return first

    def _note_inflight(self) -> None:
        now_inflight = sum(m.inflight or (1 if m.busy else 0) for m in self.managers)
        if now_inflight > self.peak_inflight:
            self.peak_inflight = now_inflight

    # -- cross-shard path --------------------------------------------------
    def _live_locks(self) -> Dict[int, float]:
        """The locks still in force, expired ones dropped: a lock ends at
        its ``until`` instant.  Without locks, nothing is allocated."""
        locks = self._locks
        if locks:
            now = self.sim.now
            for shard in [k for k, until in locks.items() if until <= now]:
                del locks[shard]
        return locks

    def _locked(self, shard: int) -> bool:
        return shard in self._live_locks()

    def shards_of(self, footprint: Footprint) -> Tuple[int, ...]:
        """Shards a footprint's elements live on (universal -> all)."""
        if footprint.universal:
            return tuple(range(len(self.managers)))
        owners = self.model.shards_of_elements(footprint.elements)
        return tuple(sorted(owners))

    def submit_cross(
        self,
        footprint: Footprint,
        mutate: Callable[..., None],
        label: str = "cross",
    ) -> CrossRepairOutcome:
        """Run ``mutate(model)`` atomically across the footprint's shards.

        Phase 1 (admission): map the footprint to its shard set; reject —
        without blocking — if the set exceeds ``max_lock_shards``, any
        affected shard is already locked, or any affected engine is busy.
        Phase 2 (commit): lock the affected shards, open one transaction
        per shard (all shards, so escaped writes are caught *and*
        undoable), apply the mutation, and verify the write set stayed
        within the declared shard set.  Any escape or exception aborts
        every transaction in reverse shard order.  Locks persist for
        ``settle_time`` either way.
        """
        affected = self.shards_of(footprint)
        locked = self._live_locks()
        reason: Optional[str] = None
        if self.max_lock_shards and len(affected) > self.max_lock_shards:
            reason = (
                f"footprint spans {len(affected)} shards "
                f"(max_lock_shards={self.max_lock_shards})"
            )
        elif any(shard in locked for shard in affected):
            reason = "affected shard already lock-settling"
        elif any(self.managers[shard].busy for shard in affected):
            reason = "affected shard busy with local repairs"
        if reason is not None:
            self.cross_rejects += 1
            self._emit(
                "shard.cross.reject",
                label=label,
                shards=list(affected),
                reason=reason,
            )
            return CrossRepairOutcome(False, affected, reason)

        until = self.sim.now + self.settle_time
        for shard in affected:
            self._locks[shard] = until

        txns = [
            ModelTransaction(self.model.shard(k)).begin()
            for k in range(len(self.managers))
        ]
        try:
            mutate(self.model)
        except Exception as exc:  # noqa: BLE001 - repair code is user code
            for txn in reversed(txns):
                txn.abort()
            self.cross_aborts += 1
            self._emit(
                "shard.cross.abort",
                label=label,
                shards=list(affected),
                reason=f"exception: {exc}",
            )
            return CrossRepairOutcome(False, affected, f"exception: {exc}")

        # Read every write set *before* any abort: aborting bumps epochs.
        touched = [txn.touched() for txn in txns]
        escaped = [k for k, fp in enumerate(touched) if fp and k not in affected]
        if escaped:
            for txn in reversed(txns):
                txn.abort()
            self.cross_aborts += 1
            reason = f"write escaped declared footprint into shards {escaped}"
            self._emit(
                "shard.cross.abort",
                label=label,
                shards=list(affected),
                reason=reason,
            )
            return CrossRepairOutcome(False, affected, reason)

        for txn in txns:
            txn.commit()
        self.cross_commits += 1
        self._emit("shard.cross.commit", label=label, shards=list(affected))
        return CrossRepairOutcome(True, affected)

    def _emit(self, event: str, **data) -> None:
        if self.trace is not None:
            self.trace.emit(self.sim.now, event, **data)
