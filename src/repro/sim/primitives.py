"""Waitable FIFO stores.

:class:`Store` models the paper's request queues: requests are ``put`` by
the request-queue splitter and ``get`` by servers in FIFO order — both the
items and the waiting getters are FIFO, so service order is deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.sim.kernel import Event, Simulator

__all__ = ["Store"]


class Store:
    """Unbounded FIFO store with waitable ``get``.

    ``put`` is immediate (the paper's queues are unbounded — queue growth
    *is* the measured "server load").  ``get`` returns an Event that
    succeeds with the oldest item as soon as one is available.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """Snapshot of queued items, oldest first."""
        return list(self._items)

    # -- operations ----------------------------------------------------------
    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event yielding the oldest item (FIFO among getters)."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def cancel_get(self, event: Event) -> bool:
        """Withdraw a pending get (used when a waiting server deactivates).

        Returns True if the event was still queued and has been removed.
        """
        try:
            self._getters.remove(event)
            return True
        except ValueError:
            return False
