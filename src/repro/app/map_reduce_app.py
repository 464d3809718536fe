"""A simulated map/reduce job with a Zipf-skewed shuffle (runtime layer).

The counterpart of :class:`~repro.app.master_worker_app.MasterWorkerApplication`
for the :mod:`repro.styles.map_reduce` style: a mapper pool consumes
input records, the shuffle routes each record's key-group to the reducer
partition that owns it, and each reducer drains its partition queue with
a small worker pool.

Everything random about a record — its key-group, map demand, and
reduce demand — is drawn **at submission** from one seeded stream, so
control and adapted runs process the identical record set; adaptation
changes only *where* records queue and reduce.  Keys are drawn from a
Zipf distribution, so one key-group dominates the shuffle: the skew the
``skewedShuffle`` invariant exists to repair.

Two runtime change operators (this application's Table 1):

* :meth:`split_keys` — reassign the colder half of a partition's
  key-groups (by observed traffic) to another reducer.  Future records
  of the moved key-groups route to the new owner; already-queued records
  stay where they are.
* :meth:`steal_queued` — migrate the back half of a partition's queued
  records to another reducer's queue: the work-stealing palliative for
  an irreducibly hot key-group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.errors import EnvironmentError_
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace

__all__ = ["ShuffleRecord", "MapReduceApplication"]


@dataclass(frozen=True)
class ShuffleRecord:
    """One record: identity, submission time, key-group, drawn demands."""

    rid: int
    submitted: float
    key: int
    map_service: float
    reduce_service: float


class _Pool:
    """A FIFO queue draining into ``width`` interchangeable workers."""

    __slots__ = ("sim", "width", "queue", "running", "service_fn", "on_done")

    def __init__(self, sim: Simulator, width: int, service_fn, on_done):
        self.sim = sim
        self.width = int(width)
        self.queue: Deque[ShuffleRecord] = deque()
        self.running = 0
        self.service_fn = service_fn
        self.on_done = on_done

    def push(self, record: ShuffleRecord) -> None:
        self.queue.append(record)
        self._dispatch()

    def _dispatch(self) -> None:
        while self.running < self.width and self.queue:
            record = self.queue.popleft()
            self.running += 1
            self.sim.schedule(self.service_fn(record), self._finish, record)

    def _finish(self, record: ShuffleRecord) -> None:
        self.running -= 1
        self.on_done(record)
        self._dispatch()


class MapReduceApplication:
    """Mappers -> shuffle -> reducer partitions, with a hot key-group."""

    def __init__(
        self,
        sim: Simulator,
        mappers: int,
        reducers: int,
        keys: int,
        zipf_s: float,
        map_service: float,
        reduce_service: float,
        reducer_width: int,
        record_rng: np.random.Generator,
        trace: Optional[Trace] = None,
    ):
        if mappers < 1 or reducers < 2:
            raise EnvironmentError_(
                "a map/reduce job needs >= 1 mapper and >= 2 reducers"
            )
        if keys < reducers:
            raise EnvironmentError_("need at least one key-group per reducer")
        if map_service <= 0 or reduce_service <= 0:
            raise EnvironmentError_("service times must be positive")
        self.sim = sim
        self.trace = trace if trace is not None else Trace()
        self.reducer_names: List[str] = [f"R{i}" for i in range(reducers)]
        self.keys = int(keys)
        self.map_service = float(map_service)
        self.reduce_service = float(reduce_service)
        self._rng = record_rng
        # Zipf pmf over key-group ranks: weight(k) = (k+1)^-s, normalized.
        weights = np.arange(1, keys + 1, dtype=float) ** -float(zipf_s)
        self._cumulative = np.cumsum(weights / weights.sum())
        #: key-group -> owning reducer index (round-robin start)
        self.assignment: Dict[int, int] = {k: k % reducers for k in range(keys)}
        #: records observed per key-group (drives split_keys's cold half)
        self.key_traffic: Dict[int, int] = {k: 0 for k in range(keys)}
        self._mapper_pool = _Pool(sim, mappers, lambda r: r.map_service, self._shuffle)
        self._reducer_pools: List[_Pool] = [
            _Pool(sim, reducer_width, lambda r: r.reduce_service, self._reduced)
            for _ in range(reducers)
        ]
        self._next_rid = 0
        self.issued = 0
        self.mapped = 0
        self.completed = 0
        self.splits = 0
        self.steals = 0
        self.moved_keys = 0
        self.stolen_records = 0

    # -- record flow -------------------------------------------------------
    def submit(self) -> ShuffleRecord:
        """Inject one input record; all its draws happen now."""
        self._next_rid += 1
        u = float(self._rng.random())
        key = int(np.searchsorted(self._cumulative, u))
        record = ShuffleRecord(
            rid=self._next_rid,
            submitted=self.sim.now,
            key=min(key, self.keys - 1),
            map_service=float(self._rng.exponential(self.map_service)),
            reduce_service=float(self._rng.exponential(self.reduce_service)),
        )
        self.issued += 1
        self._mapper_pool.push(record)
        return record

    def _shuffle(self, record: ShuffleRecord) -> None:
        self.mapped += 1
        self.key_traffic[record.key] += 1
        target = self.assignment[record.key]
        self._reducer_pools[target].push(record)

    def _reduced(self, record: ShuffleRecord) -> None:
        self.completed += 1

    # -- queries -----------------------------------------------------------
    def reducer_index(self, name: str) -> int:
        try:
            return self.reducer_names.index(name)
        except ValueError:
            raise EnvironmentError_(f"no reducer {name!r}") from None

    def mapper_backlog(self) -> int:
        return len(self._mapper_pool.queue)

    def backlog(self, name: str) -> int:
        return len(self._reducer_pools[self.reducer_index(name)].queue)

    def total_backlog(self) -> int:
        return sum(len(pool.queue) for pool in self._reducer_pools)

    def share(self, name: str) -> float:
        """This partition's fraction of all queued shuffle work."""
        total = self.total_backlog()
        if total == 0:
            return 0.0
        return self.backlog(name) / total

    def key_count(self, name: str) -> int:
        index = self.reducer_index(name)
        return sum(1 for owner in self.assignment.values() if owner == index)

    def keys_of(self, name: str) -> List[int]:
        index = self.reducer_index(name)
        return [k for k, owner in self.assignment.items() if owner == index]

    # -- runtime change operators (this application's Table 1) -------------
    def split_keys(self, hot: str, dest: str) -> int:
        """Reassign the colder half of ``hot``'s key-groups to ``dest``.

        "Colder" by observed traffic, so the dominant key-group stays —
        the split sheds every key it can without moving the hot spot
        itself.  Returns the number of key-groups moved (0 when the
        partition is already a single key-group).
        """
        hot_index = self.reducer_index(hot)
        dest_index = self.reducer_index(dest)
        owned = sorted(self.keys_of(hot), key=lambda k: (self.key_traffic[k], k))
        if len(owned) <= 1:
            return 0
        moved = owned[: len(owned) // 2]
        for key in moved:
            self.assignment[key] = dest_index
        self.splits += 1
        self.moved_keys += len(moved)
        self.trace.emit(
            self.sim.now,
            "runtime.op.splitKeys",
            hot=hot,
            dest=dest,
            moved=len(moved),
            remaining=len(owned) - len(moved),
        )
        return len(moved)

    def steal_queued(self, hot: str, dest: str) -> int:
        """Migrate the back half of ``hot``'s queue to ``dest``.

        The front half keeps its position (those records are next to
        reduce anyway); the back half — the work that would otherwise
        wait longest — moves to the idle reducer.  Returns records moved.
        """
        hot_pool = self._reducer_pools[self.reducer_index(hot)]
        dest_pool = self._reducer_pools[self.reducer_index(dest)]
        count = len(hot_pool.queue) // 2
        if count == 0:
            return 0
        migrated = [hot_pool.queue.pop() for _ in range(count)]
        for record in reversed(migrated):
            dest_pool.push(record)
        self.steals += 1
        self.stolen_records += count
        self.trace.emit(
            self.sim.now,
            "runtime.op.stealQueued",
            hot=hot,
            dest=dest,
            moved=count,
        )
        return count
