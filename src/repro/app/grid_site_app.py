"""A simulated federated grid of failing sites (runtime layer).

N sites, each a block of worker slots (pools x slots-per-pool), fed by
one submission gateway.  The gateway's router is deliberately
**health-blind**: it keeps a static, capacity-weighted round-robin cycle
over every non-drained site and never looks at liveness.  That is the
unmanaged baseline the paper's adaptation argument needs — when a site
goes dark, the router keeps assigning it work, so an unadapted grid
black-holes a capacity-weighted share of all new arrivals into the dead
site's queue and strands whatever was running there.

Site failure semantics:

* ``fail(site)`` — running tasks are *stranded*: pushed back onto the
  site's local queue (they will re-draw service on restart), and the
  queue freezes until recovery.  New arrivals keep landing in the
  frozen queue (the router is health-blind).
* ``recover(site)`` — the site thaws and pumps its backlog through its
  slots again.

The two adaptation effectors:

* ``drain_site`` — mark the site drained, remove it from the routing
  cycle, and push its entire backlog through the router onto the
  surviving sites;
* ``resubmit_pilots`` — clear the drained flag and rejoin the cycle.

Determinism: one shared service-time RNG, drawn in event order; the
router cycle is rebuilt deterministically from sorted site order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import EnvironmentError_
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace

__all__ = ["GridSiteApplication"]


class _Site:
    """One site's runtime state: slots, frozen/drained flags, backlog."""

    __slots__ = (
        "name",
        "slots",
        "up",
        "drained",
        "queue",
        "running",
        "epoch",
        "stranded",
        "completed",
    )

    def __init__(self, name: str, slots: int):
        self.name = name
        self.slots = int(slots)
        self.up = True
        self.drained = False
        self.queue: Deque[int] = deque()
        self.running = 0
        #: bumped on every crash; in-flight completions from an older
        #: epoch are stale and ignored (their tasks were stranded)
        self.epoch = 0
        self.stranded = 0
        self.completed = 0


class GridSiteApplication:
    """Sites x pools x slots behind one health-blind submission router."""

    def __init__(
        self,
        sim: Simulator,
        sites: Sequence[Tuple[str, int, int]],
        service_mean: float,
        rng,
        trace: Optional[Trace] = None,
    ):
        if not sites:
            raise EnvironmentError_("a grid needs at least one site")
        self.sim = sim
        self.trace = trace if trace is not None else Trace()
        self.service_mean = float(service_mean)
        self.rng = rng
        self.sites: Dict[str, _Site] = {}
        for name, pools, slots in sites:
            if name in self.sites:
                raise EnvironmentError_(f"duplicate site {name!r}")
            self.sites[name] = _Site(name, int(pools) * int(slots))
        self.issued = 0
        self.completed = 0
        self._task_seq = 0
        self._cycle: List[str] = []
        self._cursor = 0
        self._rebuild_cycle()

    def site(self, name: str) -> _Site:
        try:
            return self.sites[name]
        except KeyError:
            raise EnvironmentError_(f"no site {name!r}") from None

    # -- routing -----------------------------------------------------------
    def _rebuild_cycle(self) -> None:
        """Static capacity-weighted cycle over non-drained sites.

        Each site appears once per worker slot, interleaved by repeated
        sorted passes — deterministic, and health-blind by design.
        """
        cycle: List[str] = []
        names = sorted(name for name, site in self.sites.items() if not site.drained)
        if names:
            width = max(self.sites[name].slots for name in names)
            for round_ in range(width):
                cycle.extend(name for name in names if self.sites[name].slots > round_)
        self._cycle = cycle
        self._cursor = 0

    def _route(self) -> _Site:
        """Pick the next target site; fall back to shortest queue."""
        if self._cycle:
            site = self.sites[self._cycle[self._cursor % len(self._cycle)]]
            self._cursor += 1
            return site
        # Every site drained (degenerate): shortest total backlog wins,
        # name-ordered ties — still deterministic.
        return min(
            self.sites.values(),
            key=lambda s: (len(s.queue) + s.running, s.name),
        )

    # -- task flow ---------------------------------------------------------
    def submit(self) -> None:
        """Inject one pilot job through the (health-blind) router."""
        self.issued += 1
        self._task_seq += 1
        self._enqueue(self._route())

    def _enqueue(self, site: _Site) -> None:
        site.queue.append(self._task_seq)
        self._pump(site)

    def _pump(self, site: _Site) -> None:
        if not site.up:
            return
        while site.queue and site.running < site.slots:
            site.queue.popleft()
            site.running += 1
            service = self.rng.exponential(self.service_mean)
            self.sim.schedule(service, self._complete, site, site.epoch)

    def _complete(self, site: _Site, epoch: int) -> None:
        if epoch != site.epoch:
            return  # the crash already stranded this task
        site.running -= 1
        site.completed += 1
        self.completed += 1
        self._pump(site)

    # -- failure surface (fault-plane callbacks) ---------------------------
    def fail(self, name: str) -> None:
        """Crash a site: strand running tasks back onto its queue."""
        site = self.site(name)
        if not site.up:
            return
        site.up = False
        stranded = site.running
        site.epoch += 1
        site.running = 0
        site.stranded += stranded
        for _ in range(stranded):
            site.queue.appendleft(self._task_seq)
        self.trace.emit(
            self.sim.now,
            "site.down",
            site=name,
            stranded=stranded,
            queued=len(site.queue),
        )

    def recover(self, name: str) -> None:
        """Thaw a site; its backlog pumps through the slots again."""
        site = self.site(name)
        if site.up:
            return
        site.up = True
        self.trace.emit(
            self.sim.now,
            "site.up",
            site=name,
            queued=len(site.queue),
        )
        self._pump(site)

    # -- adaptation effectors ----------------------------------------------
    def drain_site(self, name: str) -> int:
        """Route a site's backlog away and drop it from rotation."""
        site = self.site(name)
        site.drained = True
        self._rebuild_cycle()
        moved = len(site.queue)
        backlog = site.queue
        site.queue = deque()
        while backlog:
            task = backlog.popleft()
            target = self._route()
            if target is site:  # every site drained: keep it local
                site.queue.append(task)
                continue
            target.queue.append(task)
            self._pump(target)
        self.trace.emit(self.sim.now, "site.drained", site=name, moved=moved)
        return moved

    def resubmit_pilots(self, name: str) -> None:
        """Rejoin the routing cycle (pilots resubmitted)."""
        site = self.site(name)
        site.drained = False
        self._rebuild_cycle()
        self.trace.emit(self.sim.now, "site.rejoined", site=name)
        self._pump(site)

    # -- queries -----------------------------------------------------------
    def healthy(self, name: str) -> float:
        """Heartbeat signal for the ``healthy`` probes: 1.0 or 0.0."""
        return 1.0 if self.site(name).up else 0.0

    def drained_flag(self, name: str) -> float:
        return 1.0 if self.site(name).drained else 0.0

    def queue_length(self, name: str) -> int:
        site = self.site(name)
        return len(site.queue) + site.running

    def sites_down(self) -> int:
        return sum(1 for site in self.sites.values() if not site.up)

    def sites_drained(self) -> int:
        return sum(1 for site in self.sites.values() if site.drained)

    def backlog(self) -> int:
        return sum(self.queue_length(name) for name in self.sites)

    @property
    def stranded(self) -> int:
        return sum(site.stranded for site in self.sites.values())
