"""Fluid-flow transfers with max-min fair bandwidth allocation.

Every active transfer is a *fluid flow* along its routed path.  Whenever the
flow set or a demand changes, the engine re-solves a two-tier allocation:

1. **priority (cross-traffic) flows** take their demanded rate first, up to
   link capacity.  The paper's competition program could starve application
   traffic to ~10 Kbps on a 10 Mbps network, so competition must *not*
   yield fairly — it behaves like unresponsive UDP blasting;
2. **elastic flows** (application transfers) then share the residual
   capacity of every link max-min fairly (progressive filling, honoring
   optional per-flow caps).

Between recomputations rates are constant, so completion times are exact and
the whole simulation stays deterministic.  This reproduces what the paper's
testbed provides to the adaptation loop: path transfer times and available
bandwidth under competition.

A re-solve costs what changed.  The engine keeps a standing index — link
key -> the flows crossing it, in the order they joined — through one
``_add`` and one ``_remove``; the fill counts the flows still filling on
each link instead of scanning for them; and each solve projects *one*
completion, the earliest, because completing it re-solves and re-projects
every other flow anyway.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.routing import RoutingTable
from repro.net.topology import Link, Topology
from repro.sim.kernel import Event, Simulator
from repro.util.ids import IdGenerator

__all__ = ["Flow", "FlowNetwork"]

_EPS_BW = 1e-9  # bits/s below which a share is considered zero
_EPS_BITS = 1e-3  # residual bits considered "transferred"


class Flow:
    """One fluid flow.

    ``cap`` is ``None`` for elastic flows; cross traffic sets a demand cap.
    ``persistent`` flows never complete (competition sources).
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "links",
        "size_bits",
        "remaining_bits",
        "rate",
        "cap",
        "persistent",
        "priority",
        "done",
        "started_at",
        "_last_advance",
        "_crossings",
        "_headroom",
    )

    def __init__(
        self,
        fid: str,
        src: str,
        dst: str,
        links: List[Link],
        size_bits: float,
        done: Optional[Event],
        cap: Optional[float] = None,
        persistent: bool = False,
        priority: bool = False,
        now: float = 0.0,
    ):
        self.fid = fid
        self.src = src
        self.dst = dst
        self.links = links
        self.size_bits = float(size_bits)
        self.remaining_bits = float(size_bits)
        self.rate = 0.0
        self.cap = cap
        self.persistent = persistent
        self.priority = priority
        self.done = done
        self.started_at = now
        self._last_advance = now
        self._crossings: Tuple[_Crossing, ...] = ()  # set while in a network
        self._headroom = math.inf  # solve scratch: cap not yet used

    def advance(self, now: float) -> None:
        """Account for bits moved since the last advance at current rate."""
        dt = now - self._last_advance
        if dt > 0 and not self.persistent:
            self.remaining_bits = max(0.0, self.remaining_bits - dt * self.rate)
        self._last_advance = now

    @property
    def finished(self) -> bool:
        return not self.persistent and self.remaining_bits <= _EPS_BITS


class _Crossing:
    """One link's entry in the standing index.

    ``flows`` holds every flow crossing the link, in the order they joined
    the network (the order ``link_load`` sums in); ``elastic`` counts the
    ones that are not priority.  ``residual`` and ``filling`` are the link's
    scratch during a solve: capacity not yet handed out, and how many of
    its elastic flows are still filling.
    """

    __slots__ = ("link", "flows", "elastic", "residual", "filling")

    def __init__(self, link: Link):
        self.link = link
        self.flows: Dict[str, Flow] = {}
        self.elastic = 0
        self.residual = 0.0
        self.filling = 0


class FlowNetwork:
    """Manages flows over a topology and keeps allocations max-min fair."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        local_bps: float = 1e9,
    ):
        self.sim = sim
        self.topology = topology
        self.routing = RoutingTable(topology)
        self.local_bps = float(local_bps)  # co-located endpoints (same machine)
        self._flows: Dict[str, Flow] = {}
        self._xtraffic: Dict[str, Flow] = {}  # name -> persistent flow
        # The standing index, kept by _add / _remove alone: the links that
        # carry a flow (an entry is never empty), and the priority flows in
        # fid order — the order tier 1 serves them in.
        self._index: Dict[Tuple[str, str], _Crossing] = {}
        self._priority: List[Flow] = []
        self._ids = IdGenerator()
        self._epoch = 0
        self.completed_transfers = 0
        self.total_bits_delivered = 0.0

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Start moving ``nbytes`` from ``src`` to ``dst``.

        Returns an event that succeeds (value = the Flow) on completion.
        Co-located endpoints use a fast local channel instead of the net.
        """
        return self.start_transfer(src, dst, nbytes)[0]

    def start_transfer(
        self, src: str, dst: str, nbytes: float
    ) -> Tuple[Event, Optional[Flow]]:
        """Like :meth:`transfer` but also returns the Flow handle.

        The handle supports :meth:`cancel` (used when a moved client's
        pending responses are purged); it is None for co-located endpoints
        and zero-byte transfers, which cannot be cancelled.
        """
        if not 0 <= nbytes < math.inf:  # negative, infinite, or NaN
            raise NetworkError(f"transfer size must be finite and >= 0, got {nbytes}")
        done = Event(self.sim)
        links = self.routing.links_on_path(src, dst)
        fid = self._ids.next("flow")
        flow = Flow(fid, src, dst, links, nbytes * 8.0, done, now=self.sim.now)
        if not links:
            # Same machine: constant local bandwidth, not part of fair sharing.
            flow.rate = self.local_bps
            delay = flow.remaining_bits / self.local_bps if nbytes else 0.0
            self.sim.schedule(delay, self._complete_local, flow)
            return done, None
        if nbytes == 0:
            self.sim.schedule(0.0, self._complete, flow)
            return done, None
        self._add(flow)
        self.recompute()
        return done, flow

    def cancel(self, flow: Flow) -> bool:
        """Abort an in-flight transfer; its done-event fails.

        Returns False if the flow already completed or was cancelled.
        """
        if self._flows.get(flow.fid) is not flow:
            return False
        self._remove(flow)
        if flow.done is not None and not flow.done.triggered:
            flow.done.fail(NetworkError(f"transfer {flow.fid} cancelled"))
        self.recompute()
        return True

    def _add(self, flow: Flow) -> None:
        """Put ``flow`` into the flow set and the link index."""
        self._flows[flow.fid] = flow
        crossings = []
        for link in flow.links:
            crossing = self._index.get(link.key)
            if crossing is None:
                crossing = self._index[link.key] = _Crossing(link)
            crossing.flows[flow.fid] = flow
            if not flow.priority:
                crossing.elastic += 1
            crossings.append(crossing)
        flow._crossings = tuple(crossings)
        if flow.priority:
            self._priority.append(flow)
            self._priority.sort(key=attrgetter("fid"))

    def _remove(self, flow: Flow) -> None:
        """Take ``flow`` out of the flow set, the link index and — a
        competitor — the name table, so the name can be used again."""
        del self._flows[flow.fid]
        for crossing in flow._crossings:
            del crossing.flows[flow.fid]
            if not flow.priority:
                crossing.elastic -= 1
            if not crossing.flows:
                del self._index[crossing.link.key]
        flow._crossings = ()
        if flow.priority:
            self._priority.remove(flow)
            for name, competitor in self._xtraffic.items():
                if competitor is flow:
                    del self._xtraffic[name]
                    break

    def _complete_local(self, flow: Flow) -> None:
        flow.remaining_bits = 0.0
        self._finish(flow)

    def _complete(self, flow: Flow) -> None:
        # Two solves on purpose, one inside the done callbacks (they start
        # the next transfer) and one here: the callbacks also publish
        # messages whose delivery delay reads link_utilization in between.
        if flow.fid in self._flows:  # a zero-byte transfer never joined
            self._remove(flow)
        self._finish(flow)
        self.recompute()

    def _finish(self, flow: Flow) -> None:
        self.completed_transfers += 1
        if not flow.persistent and math.isfinite(flow.size_bits):
            self.total_bits_delivered += flow.size_bits
        if flow.done is not None and not flow.done.triggered:
            flow.done.succeed(flow)

    # ------------------------------------------------------------------
    # Cross traffic (competition)
    # ------------------------------------------------------------------
    def set_cross_traffic(self, name: str, src: str, dst: str, rate_bps: float) -> None:
        """Create/update a persistent competing flow demanding ``rate_bps``.

        A rate of 0 removes the competitor.  Competition is *unresponsive*
        (priority tier): it takes its full demand before elastic application
        flows share what remains — matching the paper's competition program,
        which could drive residual path bandwidth down to ~10 Kbps.  An
        infinite demand is legal: the competitor takes the whole path.
        """
        if not rate_bps >= 0:  # negative, or NaN
            raise NetworkError(f"cross-traffic rate must be >= 0, got {rate_bps}")
        existing = self._xtraffic.get(name)
        if rate_bps == 0:
            if existing is not None:
                self._remove(existing)
                self.recompute()
            return
        if existing is not None:
            if existing.src != src or existing.dst != dst:
                raise NetworkError(
                    f"cross-traffic {name!r} endpoints changed; remove it first"
                )
            existing.cap = float(rate_bps)
        else:
            links = self.routing.links_on_path(src, dst)
            if not links:
                raise NetworkError("cross traffic requires distinct endpoints")
            fid = self._ids.next("xtraffic")
            flow = Flow(
                fid,
                src,
                dst,
                links,
                math.inf,
                None,
                cap=float(rate_bps),
                persistent=True,
                priority=True,
                now=self.sim.now,
            )
            self._add(flow)
            self._xtraffic[name] = flow
        self.recompute()

    def cross_traffic_rate(self, name: str) -> float:
        flow = self._xtraffic.get(name)
        return flow.cap if flow is not None else 0.0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def recompute(self) -> None:
        """Re-solve the max-min allocation and re-project the next completion."""
        now = self.sim.now
        finished: List[Flow] = []
        for flow in self._flows.values():
            flow.advance(now)
            if flow.finished:
                finished.append(flow)
        for flow in finished:
            self._remove(flow)
        self._solve()
        self._project()
        # Fire completions after rates settle (callbacks may add new flows).
        for flow in finished:
            self._finish(flow)

    def _project(self) -> None:
        """Schedule the one completion this allocation can still reach.

        Completing a flow re-solves, which re-projects every other flow,
        so only the earliest projection of an epoch can ever fire un-stale:
        the smallest *instant* as the kernel computes it (two etas may round
        onto one instant), first in ``_flows`` order on a tie — the action
        the kernel's per-instant FIFO would have run first.
        """
        self._epoch += 1
        now = self.sim.now
        first: Optional[Flow] = None
        earliest = math.inf
        for flow in self._flows.values():
            if flow.persistent or flow.rate <= _EPS_BW:
                continue
            due = now + flow.remaining_bits / flow.rate
            if due < earliest:
                first, earliest = flow, due
        if first is not None:
            self.sim.schedule_at(earliest, self._maybe_complete, first.fid, self._epoch)

    def _maybe_complete(self, fid: str, epoch: int) -> None:
        if epoch != self._epoch:
            return  # allocation changed since this completion was projected
        flow = self._flows.get(fid)
        if flow is None:
            return
        now = self.sim.now
        flow.advance(now)
        # Float drift can leave a sliver behind.  One the clock can still
        # resolve is projected again (with every other flow); one it cannot
        # is as finished as this clock can say.
        if flow.finished or now + flow.remaining_bits / flow.rate == now:
            self._complete(flow)
        else:
            self.recompute()

    def _solve(self) -> None:
        """Two-tier allocation: priority demands first, then max-min fill.

        Tier 1 depends on the order it serves flows in (fid order); tier 2
        does not, so it walks the index as it stands.
        """
        links: List[_Crossing] = []  # the links tier 2 fills
        for crossing in self._index.values():
            crossing.residual = crossing.link.capacity
            crossing.filling = crossing.elastic
            if crossing.elastic:
                links.append(crossing)

        # Tier 1: unresponsive competition takes its demand up front.
        for f in self._priority:
            take = f.cap if f.cap is not None else math.inf
            for crossing in f._crossings:
                if crossing.residual < take:
                    take = crossing.residual
            take = max(0.0, take)
            f.rate = take
            for crossing in f._crossings:
                crossing.residual -= take

        # Tier 2: progressive filling of elastic flows over the residual.
        filling = [f for f in self._flows.values() if not f.priority]
        for f in filling:
            f.rate = 0.0
            f._headroom = f.cap if f.cap is not None else math.inf

        while filling:
            # Largest uniform increment every filling flow can take.
            inc = math.inf
            for crossing in links:
                if crossing.filling:
                    share = crossing.residual / crossing.filling
                    if share < inc:
                        inc = share
            for f in filling:
                if f._headroom < inc:
                    inc = f._headroom
            if not math.isfinite(inc):
                break  # unconstrained (cannot happen: flows have links)
            if inc > _EPS_BW:
                for f in filling:
                    f.rate += inc
                    f._headroom -= inc
                for crossing in links:
                    crossing.residual -= inc * crossing.filling

            # Freeze exactly the flows whose constraint binds (a saturated
            # link or exhausted cap) and keep filling the others — a flow
            # pinned at zero must not stall its peers.
            still: List[Flow] = []
            for f in filling:
                if f._headroom > _EPS_BW:
                    for crossing in f._crossings:
                        if crossing.residual <= _EPS_BW:
                            break
                    else:
                        still.append(f)
                        continue
                for crossing in f._crossings:
                    crossing.filling -= 1
            if len(still) == len(filling):
                # Nothing saturated, yet the increment was below
                # resolution because some link's residual, split over its
                # filling flows, is.  Freeze those flows so their peers
                # keep filling; if there are none, accept the allocation.
                tight = {
                    crossing
                    for crossing in links
                    if crossing.filling
                    and crossing.residual <= _EPS_BW * crossing.filling
                }
                still = []
                for f in filling:
                    if any(crossing in tight for crossing in f._crossings):
                        for crossing in f._crossings:
                            crossing.filling -= 1
                    else:
                        still.append(f)
                if len(still) == len(filling):
                    break  # numerically stuck; accept current allocation
            filling = still

    # ------------------------------------------------------------------
    # Measurement (ground truth for Remos and the figures)
    # ------------------------------------------------------------------
    @property
    def flows(self) -> List[Flow]:
        return [self._flows[k] for k in sorted(self._flows)]

    @property
    def active_transfers(self) -> List[Flow]:
        return [f for f in self.flows if not f.persistent]

    def _load(self, link: Link) -> float:
        crossing = self._index.get(link.key)
        if crossing is None:
            return 0
        return sum([f.rate for f in crossing.flows.values()])

    def link_load(self, a: str, b: str) -> float:
        """Sum of current flow rates crossing link (a, b), bits/s."""
        return self._load(self.topology.link(a, b))

    def link_utilization(self, a: str, b: str) -> float:
        link = self.topology.link(a, b)
        return self._load(link) / link.capacity

    def residual_bandwidth(self, src: str, dst: str) -> float:
        """Unused capacity along the path (min over links)."""
        links = self.routing.links_on_path(src, dst)
        if not links:
            return self.local_bps
        return max(0.0, min(link.capacity - self._load(link) for link in links))

    def predicted_bandwidth(self, src: str, dst: str) -> float:
        """Rate a *new* elastic flow would receive (hypothetical max-min).

        This is Remos's "predicted bandwidth" semantics: it accounts both
        for idle capacity and for the fair share a newcomer would squeeze
        out of existing elastic flows — never zero on a live path.
        """
        links = self.routing.links_on_path(src, dst)
        if not links:
            return self.local_bps
        probe = Flow("__probe__", src, dst, links, math.inf, None, persistent=True)
        saved_rates = [(f, f.rate) for f in self._flows.values()]
        self._add(probe)
        try:
            self._solve()
            return probe.rate
        finally:
            self._remove(probe)
            for f, rate in saved_rates:
                f.rate = rate
