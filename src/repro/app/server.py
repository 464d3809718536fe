"""Replicated servers.

A server runs two decoupled stages:

* **service stage** — pull the oldest request from the group's FIFO queue,
  compute for ``base + per_byte * response_size`` seconds, hand the
  response to the send stage, repeat;
* **send stage** — stream responses back to clients over the simulated
  network, in order *per destination* (one connection per client, like one
  TCP stream each), with transfers to different clients proceeding
  concurrently.

Under bandwidth starvation to one client, that client's response stream
crawls and its backlog grows (the control run's latency explosion), while
the request queue — the paper's measured "server load" — only grows when
arrival rate exceeds the group's aggregate service rate (the stress phase).

``deactivateServer`` is graceful, matching Table 1's "signals that a server
should stop pulling requests": the current request finishes, queued
outgoing responses still drain, but nothing new is pulled.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Set

from repro.app.messages import Request
from repro.errors import EnvironmentError_
from repro.net.flows import FlowNetwork
from repro.sim.kernel import Event, Simulator
from repro.sim.primitives import Store
from repro.sim.process import Interrupted, Process

__all__ = ["Server"]


class Server:
    """One replicated server process."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        machine: str,
        network: FlowNetwork,
        service_base: float = 0.10,
        service_per_byte: float = 7.5e-6,
    ):
        if service_base < 0 or service_per_byte < 0:
            raise ValueError("service-time parameters must be non-negative")
        self.sim = sim
        self.name = name
        self.machine = machine
        self.network = network
        self.service_base = float(service_base)
        self.service_per_byte = float(service_per_byte)

        self.active = False
        self.group: Optional[str] = None
        self._queue: Optional[Store] = None
        self._resolve_client: Optional[Callable[[str], "object"]] = None

        self.served = 0
        self.busy_time = 0.0
        self._active_time_acc = 0.0
        self._activated_at: Optional[float] = None
        self._process: Optional[Process] = None
        self._pending_get: Optional[Event] = None

        self._send_queues: Dict[str, Deque[Request]] = {}
        self._sending: Set[str] = set()
        self._inflight: Dict[str, object] = {}
        self.dropped = 0

    # -- wiring -----------------------------------------------------------------
    def bind_client_resolver(self, resolver: Callable[[str], "object"]) -> None:
        """Provide ``name -> Client`` resolution (set once by the system)."""
        self._resolve_client = resolver

    def connect(self, group: str, queue: Store) -> None:
        """Table 1 ``connectServer``: pull requests from ``queue``.

        Only allowed while inactive — the runtime reconnects servers between
        deactivation and (re)activation, exactly how the translator
        sequences it.
        """
        if self.active:
            raise EnvironmentError_(
                f"server {self.name} must be deactivated before reconnecting"
            )
        self.group = group
        self._queue = queue

    # -- Table 1 activate/deactivate -------------------------------------------------
    def activate(self) -> None:
        """Begin pulling requests from the connected queue."""
        if self.active:
            raise EnvironmentError_(f"server {self.name} is already active")
        if self._queue is None or self._resolve_client is None:
            raise EnvironmentError_(f"server {self.name} is not connected/wired")
        self.active = True
        self._activated_at = self.sim.now
        self._process = Process(self.sim, self._run(), name=f"server.{self.name}")

    def deactivate(self) -> None:
        """Stop pulling requests (graceful; idempotent)."""
        if not self.active:
            return
        self.active = False
        if self._activated_at is not None:
            self._active_time_acc += self.sim.now - self._activated_at
            self._activated_at = None
        if self._pending_get is not None and self._queue is not None:
            # Waiting idle on the queue: withdraw and stop immediately.
            self._queue.cancel_get(self._pending_get)
            self._pending_get = None
            assert self._process is not None
            self._process.interrupt("deactivate")
        # Otherwise mid-service: the loop observes ``active`` and exits
        # after the current request; outgoing responses always drain.

    def crash(self) -> int:
        """Abrupt failure (the paper's "servers going down" fault class).

        Unlike graceful deactivation, a crash loses work: the request being
        computed (if any) never completes, queued and in-flight responses
        are dropped, and nothing drains.  The server can later be repaired
        and re-activated (``connect`` + ``activate``), modeling a restart.
        Returns the number of responses lost (excluding the in-service
        request, which is also lost but tracked by the caller via queues).
        """
        lost = 0
        if self.active:
            self.active = False
            if self._activated_at is not None:
                self._active_time_acc += self.sim.now - self._activated_at
                self._activated_at = None
            if self._pending_get is not None and self._queue is not None:
                self._queue.cancel_get(self._pending_get)
                self._pending_get = None
            if self._process is not None:
                self._process.kill()
                self._process = None
        for dest in list(self._send_queues):
            queue = self._send_queues.pop(dest)
            lost += len(queue)
        self.dropped += lost
        for dest, flow in list(self._inflight.items()):
            self.network.cancel(flow)  # the finished callback counts it
        self._sending.clear()
        return lost

    # -- service stage ---------------------------------------------------------------
    def service_time(self, response_size: float) -> float:
        """Compute time for a response of ``response_size`` bytes."""
        return self.service_base + self.service_per_byte * response_size

    def _run(self):
        assert self._queue is not None
        while self.active:
            get_ev = self._queue.get()
            self._pending_get = get_ev
            try:
                req: Request = yield get_ev
            except Interrupted:
                return  # deactivated while idle; get already cancelled
            self._pending_get = None
            req.dequeued_at = self.sim.now
            req.served_by = self.name
            span = self.service_time(req.response_size)
            yield self.sim.timeout(span)
            self.busy_time += span
            req.service_done_at = self.sim.now
            self.served += 1
            self._enqueue_send(req)

    # -- send stage -------------------------------------------------------------------
    def _enqueue_send(self, req: Request) -> None:
        dest = req.client
        self._send_queues.setdefault(dest, deque()).append(req)
        if dest not in self._sending:
            self._sending.add(dest)
            self._send_next(dest)

    def _send_next(self, dest: str) -> None:
        queue = self._send_queues.get(dest)
        if not queue:
            self._sending.discard(dest)
            self._inflight.pop(dest, None)
            return
        req = queue.popleft()
        assert self._resolve_client is not None
        client = self._resolve_client(dest)
        ev, flow = self.network.start_transfer(
            self.machine, client.machine, req.response_size
        )
        if flow is not None:
            self._inflight[dest] = flow

        def finished(e: Event, req: Request = req, dest: str = dest) -> None:
            self._inflight.pop(dest, None)
            if e.ok:
                client.deliver(req)
            else:
                self.dropped += 1
            self._send_next(dest)

        ev.add_callback(finished)

    def purge_destination(self, dest: str) -> int:
        """Drop queued and in-flight responses for ``dest``.

        Called when a client is moved to another request queue: the old
        connection is torn down and undelivered responses on it are
        discarded (the translator's ``moveClient`` re-routes the client's
        communications).  Returns the number of responses dropped; the
        in-flight transfer, if any, is cancelled and counted by its own
        completion callback.
        """
        queue = self._send_queues.pop(dest, None)
        dropped = len(queue) if queue else 0
        self.dropped += dropped
        flow = self._inflight.get(dest)
        if flow is not None:
            # cancel() fails the transfer event; `finished` advances the
            # (now empty) queue and clears the sending flag.
            self.network.cancel(flow)
        elif dropped:
            self._sending.discard(dest)
        return dropped

    # -- statistics ----------------------------------------------------------------------
    def send_backlog(self, dest: Optional[str] = None) -> int:
        """Responses queued in the send stage (per destination or total).

        In-flight transfers are not counted; only waiting responses.
        """
        if dest is not None:
            return len(self._send_queues.get(dest, ()))
        return sum(len(q) for q in self._send_queues.values())

    def active_time(self, now: Optional[float] = None) -> float:
        total = self._active_time_acc
        if self._activated_at is not None:
            total += (self.sim.now if now is None else now) - self._activated_at
        return total

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of active time spent computing (send stage excluded)."""
        span = self.active_time(now)
        return self.busy_time / span if span > 0 else 0.0
