"""Scheduled bandwidth-competition generators (the paper's Figure 7).

The testbed experiment ran "a program that generates the same bandwidth
competition for each experiment" (§5.1).  :class:`CrossTrafficGenerator`
drives a persistent capped flow through a :class:`~repro.util.StepFunction`
demand schedule, changing its rate at exactly the scheduled breakpoints —
identical in the control and adapted runs.
"""

from __future__ import annotations

from typing import List

from repro.errors import WorkloadError
from repro.net.flows import FlowNetwork
from repro.sim.kernel import Simulator
from repro.util.windows import StepFunction

__all__ = ["CrossTrafficGenerator"]


class CrossTrafficGenerator:
    """Applies a stepped demand schedule to one competing flow.

    ``schedule`` maps time -> demanded bits/s; 0 means no competition.
    Call :meth:`start` once after construction; the generator installs the
    initial rate and self-schedules every breakpoint up to ``horizon``.
    """

    def __init__(
        self,
        sim: Simulator,
        network: FlowNetwork,
        name: str,
        src: str,
        dst: str,
        schedule: StepFunction,
        horizon: float,
    ):
        if horizon <= 0:
            raise WorkloadError(f"horizon must be positive, got {horizon}")
        self.sim = sim
        self.network = network
        self.name = name
        self.src = src
        self.dst = dst
        self.schedule = schedule
        self.horizon = float(horizon)
        self.applied: List[tuple] = []  # (time, rate) audit trail
        self._started = False

    def start(self) -> None:
        if self._started:
            raise WorkloadError(f"generator {self.name!r} started twice")
        self._started = True
        self._apply(self.schedule(self.sim.now))
        for t in self.schedule.change_times(self.sim.now, self.sim.now + self.horizon):
            self.sim.schedule_at(t, self._on_breakpoint, t)

    def _on_breakpoint(self, t: float) -> None:
        self._apply(self.schedule(t))

    def _apply(self, rate: float) -> None:
        self.network.set_cross_traffic(self.name, self.src, self.dst, rate)
        self.applied.append((self.sim.now, rate))
