"""Aggregate view over per-shard repair engines.

Each shard runs its own :class:`ArchitectureManager` against its own
slice of the model, so shard-local repairs proceed with **zero**
coordination — the whole point of sharding.  The :class:`ShardCoordinator`
is every runtime's manager, one shard or many: it presents the
*aggregate* manager surface the runtime and the metrics samplers expect
(``busy`` / ``inflight`` / ``evaluations`` / ``repair_stats()`` /
merged ``history`` / ``breakers``), summing or merging over the
per-shard engines (over one engine: that engine's own), and records the
peak number of repairs in flight across shards.
There is one commit path: every repair is a shard engine's own, under
that engine's transactions; no repair spans shards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.repair.engine import ArchitectureManager
from repro.repair.history import RepairHistory, RepairRecord

__all__ = ["ShardCoordinator"]


class _ShardEvaluator:
    """Single-shard facade handed to that shard's property updater."""

    def __init__(self, coordinator: "ShardCoordinator", shard: int):
        self._coordinator = coordinator
        self._shard = shard

    def evaluate(self, full: bool = False) -> Optional[RepairRecord]:
        return self._coordinator.evaluate_shard(self._shard, full=full)


class ShardCoordinator:
    """Aggregate view over shard engines, index-aligned with the shards
    of the model they operate on."""

    def __init__(self, managers: List[ArchitectureManager]):
        if not managers:
            raise ValueError("ShardCoordinator needs at least one manager")
        self.managers = list(managers)
        #: peak *total* concurrent repairs across all shards
        self.peak_inflight = 0

    # -- aggregate manager surface -----------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.managers)

    @property
    def busy(self) -> bool:
        return any(manager.busy for manager in self.managers)

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
        """Key-wise rollup of the shard engines plus the coordinator's peak.

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
        return stats

    def shard_proxy(self, shard: int) -> _ShardEvaluator:
        """The per-shard ``arch_manager`` handed to that shard's updater."""
        return _ShardEvaluator(self, shard)

    # -- evaluation --------------------------------------------------------
    def evaluate_shard(self, shard: int, full: bool = False):
        """Run one shard's local loop, then note the peak in flight."""
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
