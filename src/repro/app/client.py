"""Clients: open-loop request sources with scheduled rates and sizes.

The paper controlled its experiment by seeding clients so that the request
sequence is identical in the control and adapted runs (§5.1).  Each client
owns a named random stream; rates and sizes are functions of *time*, so the
issued workload is byte-for-byte identical across runs regardless of how the
adaptation machinery reshapes service.

Clients are *open loop*: they do not wait for a response before issuing the
next request (the paper gives an aggregate arrival rate of ~6/s independent
of service behaviour).  Requests travel to the request-queue machine as a
fixed small control-latency hop — request payloads (0.5 KB) are ~2.5 % of
response payloads (20 KB), so their bandwidth is ignored; responses are the
only application load on the simulated network (documented in DESIGN.md §4).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.app.messages import Request
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.util.ids import IdGenerator
from repro.util.windows import SlidingWindow, StepFunction

__all__ = ["Client"]

SizeFn = Callable[[float, np.random.Generator], float]


class Client:
    """One request source.

    Parameters
    ----------
    rate:
        requests/second as a function of time (Figure 7's load schedule).
    size_fn:
        ``(time, rng) -> response bytes`` for each request.
    request_latency:
        fixed client -> request-queue control delay, seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        machine: str,
        rate: StepFunction,
        size_fn: SizeFn,
        rng: np.random.Generator,
        request_size: float = 512.0,
        request_latency: float = 0.02,
        latency_horizon: float = 30.0,
    ):
        self.sim = sim
        self.name = name
        self.machine = machine
        self.rate = rate
        self.size_fn = size_fn
        self.rng = rng
        self.request_size = float(request_size)
        self.request_latency = float(request_latency)

        self.issued = 0
        self.received = 0
        self.completions: List[Tuple[float, float]] = []  # (time, latency)
        self.latency_window = SlidingWindow(latency_horizon)

        self._router: Optional[Callable[[Request], None]] = None
        self._ids = IdGenerator()
        self._process: Optional[Process] = None
        self._response_listeners: List[Callable[[Request], None]] = []
        self._request_listeners: List[Callable[[Request], None]] = []

    # -- wiring ---------------------------------------------------------------
    def connect(self, router: Callable[[Request], None]) -> None:
        """Attach the request-queue service that accepts this client's requests."""
        self._router = router

    def on_request(self, listener: Callable[[Request], None]) -> None:
        """Probe hook: called at every request issue."""
        self._request_listeners.append(listener)

    def on_response(self, listener: Callable[[Request], None]) -> None:
        """Probe hook: called at every completed response."""
        self._response_listeners.append(listener)

    # -- lifecycle --------------------------------------------------------------
    def start(self, horizon: float) -> Process:
        """Begin issuing requests until simulated ``horizon``."""
        if self._router is None:
            raise RuntimeError(f"client {self.name} not connected to a request queue")
        if self._process is not None:
            raise RuntimeError(f"client {self.name} already started")
        self._process = Process(self.sim, self._run(horizon), name=f"client.{self.name}")
        return self._process

    def _run(self, horizon: float):
        while True:
            rate = self.rate(self.sim.now)
            if rate <= 0.0:
                # Paused: sleep to the next schedule change (or the horizon).
                changes = self.rate.change_times(self.sim.now, horizon)
                if not changes:
                    return
                yield self.sim.timeout(changes[0] - self.sim.now)
                continue
            gap = float(self.rng.exponential(1.0 / rate))
            if self.sim.now + gap > horizon:
                return
            yield self.sim.timeout(gap)
            self._issue()

    def _issue(self) -> None:
        assert self._router is not None
        now = self.sim.now
        req = Request(
            rid=f"{self.name}.{self._ids.next('req')}",
            client=self.name,
            response_size=float(self.size_fn(now, self.rng)),
            request_size=self.request_size,
            issued_at=now,
        )
        self.issued += 1
        for listener in self._request_listeners:
            listener(req)
        self.sim.schedule(self.request_latency, self._router, req)

    # -- response delivery (called by servers) -----------------------------------
    def deliver(self, req: Request) -> None:
        """Record a completed response; invoked by the sending server."""
        now = self.sim.now
        req.completed_at = now
        self.received += 1
        latency = req.latency
        assert latency is not None
        self.completions.append((now, latency))
        self.latency_window.add(now, latency)
        for listener in self._response_listeners:
            listener(req)

    # -- statistics ----------------------------------------------------------------
    def average_latency(self, now: Optional[float] = None) -> Optional[float]:
        """Windowed mean latency of recently completed requests."""
        return self.latency_window.mean(self.sim.now if now is None else now)
