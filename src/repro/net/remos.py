"""Remos stand-in (substrate S4): the resource-query service.

The paper used Remos [16] to answer "what is the predicted bandwidth between
these two IPs?" and reported two operationally important behaviours (§5.3):

* the *first* query about a host pair takes minutes, because Remos must
  collect and analyse data — so the authors *pre-queried* pairs of interest;
* subsequent queries are fast.

:class:`RemosService` reproduces both: a cold query costs ``cold_delay``
simulated seconds, after which the pair stays *warm* for ``warm_ttl``
seconds, and warm queries cost ``warm_delay``.  Prediction values come from
the flow engine's hypothetical max-min share (see
:meth:`repro.net.flows.FlowNetwork.predicted_bandwidth`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.net.flows import FlowNetwork
from repro.sim.kernel import Event, Simulator

__all__ = ["RemosService", "RemosStats"]


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class RemosStats:
    """Counters for reporting and the A3 ablation."""

    queries: int = 0
    cold_queries: int = 0
    total_latency: float = 0.0

    @property
    def warm_queries(self) -> int:
        return self.queries - self.cold_queries

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.queries if self.queries else 0.0


class RemosService:
    """Bandwidth prediction with cold-start collection delay and caching."""

    def __init__(
        self,
        sim: Simulator,
        network: FlowNetwork,
        cold_delay: float = 90.0,
        warm_delay: float = 0.5,
        warm_ttl: float = 3600.0,
    ):
        if cold_delay < 0 or warm_delay < 0 or warm_ttl <= 0:
            raise ValueError("remos delays must be >= 0 and warm_ttl > 0")
        self.sim = sim
        self.network = network
        self.cold_delay = float(cold_delay)
        self.warm_delay = float(warm_delay)
        self.warm_ttl = float(warm_ttl)
        self._warm_until: Dict[Tuple[str, str], float] = {}
        self.stats = RemosStats()

    # -- query API -----------------------------------------------------------
    def is_warm(self, a: str, b: str) -> bool:
        expiry = self._warm_until.get(_pair(a, b))
        return expiry is not None and self.sim.now <= expiry

    def query_delay(self, a: str, b: str) -> float:
        """Latency the next ``get_flow(a, b)`` call would incur."""
        return self.warm_delay if self.is_warm(a, b) else self.cold_delay

    def get_flow(self, src: str, dst: str) -> Event:
        """Asynchronous ``remos_get_flow``: event yielding predicted bits/s.

        The prediction is sampled at *answer* time (after the query delay),
        matching a measurement infrastructure that reports current state.
        """
        delay = self.query_delay(src, dst)
        self.stats.queries += 1
        if delay == self.cold_delay and self.cold_delay > self.warm_delay:
            self.stats.cold_queries += 1
        self.stats.total_latency += delay
        self._warm_until[_pair(src, dst)] = self.sim.now + delay + self.warm_ttl
        ev = Event(self.sim)
        self.sim.schedule(delay, self._answer, ev, src, dst)
        return ev

    def _answer(self, ev: Event, src: str, dst: str) -> None:
        ev.succeed(self.network.predicted_bandwidth(src, dst))

    def measure_now(self, src: str, dst: str) -> float:
        """Instantaneous prediction without protocol delay.

        Used by the metrics sampler (the experimenter's out-of-band view for
        Figures 10/12) — *not* by the adaptation loop, which must pay
        :meth:`get_flow`'s latency like the paper's framework did.
        """
        return self.network.predicted_bandwidth(src, dst)

    # -- pre-querying (§5.3) ---------------------------------------------------
    def prewarm(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Mark host pairs warm without paying the cold delay in-run.

        Models the paper's fix: "we pre-queried Remos so that subsequent
        queries were much faster."  Returns the number of pairs warmed.
        """
        n = 0
        for a, b in pairs:
            self._warm_until[_pair(a, b)] = self.sim.now + self.warm_ttl
            n += 1
        return n

    def prewarm_all_hosts(self) -> int:
        """Prewarm every host pair in the topology."""
        hosts = [n.name for n in self.network.topology.hosts]
        return self.prewarm(
            (a, b) for i, a in enumerate(hosts) for b in hosts[i + 1 :]
        )
