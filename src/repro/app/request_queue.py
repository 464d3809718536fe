"""The request-queue machine (RQ).

"The clients send requests to an entity that splits the requests into
queues, corresponding to the client's server group" (§5).  This service
owns one logical FIFO per server group plus the client -> group assignment
used by ``moveClient``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.app.messages import Request
from repro.errors import EnvironmentError_
from repro.sim.kernel import Simulator
from repro.sim.primitives import Store

__all__ = ["RequestQueueService"]


class RequestQueueService:
    """Per-group request FIFOs and client routing."""

    def __init__(self, sim: Simulator, machine: str = "RQ"):
        self.sim = sim
        self.machine = machine
        self._queues: Dict[str, Store] = {}
        self._assignment: Dict[str, str] = {}
        self.routed = 0
        self._route_listeners: List[Callable[[Request], None]] = []

    # -- queue management (Table 1: createReqQueue) -----------------------------
    def create_queue(self, group: str) -> Store:
        """Add a logical request queue for ``group`` (Table 1 createReqQueue)."""
        if group in self._queues:
            raise EnvironmentError_(f"request queue for group {group!r} already exists")
        store = Store(self.sim, name=f"queue.{group}")
        self._queues[group] = store
        return store

    def queue(self, group: str) -> Store:
        try:
            return self._queues[group]
        except KeyError:
            raise EnvironmentError_(f"no request queue for group {group!r}") from None

    @property
    def groups(self) -> List[str]:
        return sorted(self._queues)

    def queue_length(self, group: str) -> int:
        """The paper's "server load": waiting requests for ``group``."""
        return len(self.queue(group))

    # -- client assignment (Table 1: moveClient) ---------------------------------
    def assign(self, client: str, group: str) -> None:
        """Initial placement of ``client`` onto ``group``'s queue."""
        self.queue(group)  # validate
        self._assignment[client] = group

    def assignment_of(self, client: str) -> str:
        try:
            return self._assignment[client]
        except KeyError:
            raise EnvironmentError_(f"client {client!r} has no queue assignment") from None

    def move_client(self, client: str, group: str) -> str:
        """Re-route future requests of ``client`` to ``group``.

        Requests already queued at the old group stay there and are served
        by the old group (they were split on arrival, like the paper's
        implementation).  Returns the previous group.
        """
        old = self.assignment_of(client)
        self.queue(group)  # validate target
        self._assignment[client] = group
        return old

    # -- routing -----------------------------------------------------------------
    def on_route(self, listener: Callable[[Request], None]) -> None:
        """Probe hook: called whenever a request is enqueued."""
        self._route_listeners.append(listener)

    def accept(self, req: Request) -> None:
        """Enqueue an arriving request onto its client's group queue."""
        group = self.assignment_of(req.client)
        req.group = group
        req.enqueued_at = self.sim.now
        self.routed += 1
        self._queues[group].put(req)
        for listener in self._route_listeners:
            listener(req)
