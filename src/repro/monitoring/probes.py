"""Probes: the lowest monitoring level (paper Figure 4).

Probes are "deployed in the target system or physical environment" and
"announce observations via a probe bus".  The paper used AIDE-instrumented
application code (method-call events) plus Remos; our equivalents:

* :class:`ClientLatencyProbe` — hooks the client's response-delivery path
  (the instrumented method) and reports each completed request's latency;
* :class:`QueueLengthProbe` — samples a server group's request-queue
  length periodically;
* :class:`BandwidthProbe` — periodically asks Remos for the predicted
  bandwidth between a client and its *current* server group;
* :class:`UtilizationProbe` — samples a group's mean compute utilization.

All probes publish ``probe.<kind>.<target>`` messages.  A probe normally
publishes one message per observation; the two ``value`` probes
(:class:`CallbackProbe`, :class:`IngestProbe`) can instead buffer
``batch`` observations and publish them as **one** message carrying
parallel ``times``/``values`` tuples of the floats they buffered, which
the generic gauges consume through ``_consume_batch`` in one delivery.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import Callable, List, Optional

from repro.app.client import Client
from repro.app.system import GridApplication
from repro.bus.bus import EventBus
from repro.net.remos import RemosService
from repro.sim.kernel import Simulator

__all__ = [
    "ClientLatencyProbe",
    "QueueLengthProbe",
    "BandwidthProbe",
    "UtilizationProbe",
    "StageBacklogProbe",
    "StageUtilizationProbe",
    "CallbackProbe",
    "IngestProbe",
]


class _Probe:
    """Shared probe plumbing: identity, bus, enable/disable, counters.

    ``reports`` counts published messages, ``samples`` the observations
    they carried (equal unless the probe batches), and ``batches`` the
    column-carrying messages among them — the inputs to the ``telemetry``
    section of :meth:`~repro.runtime.core.AdaptationRuntime.stats`.

    The two ``value`` probes (:class:`CallbackProbe`,
    :class:`IngestProbe`) share the batch emission mode kept here:
    with ``batch > 1`` they buffer each observation with its capture
    time, and :meth:`flush` publishes the buffer as one ``times`` /
    ``values`` message about ``self.target``.
    """

    def __init__(self, sim: Simulator, bus: EventBus, name: str, batch: int = 1):
        if batch < 1:
            raise ValueError(f"probe batch must be >= 1, got {batch}")
        self.sim = sim
        self.bus = bus
        self.name = name
        self.batch = int(batch)
        self.enabled = True
        self.reports = 0
        self.samples = 0
        self.batches = 0
        # refilled in place: a flush copies them into tuples, then clears
        self._pending_times: List[float] = []
        self._pending_values: List[float] = []
        #: capture time of the newest observation a flush took
        self._flushed_to = -inf

    def publish(self, subject: str, **attributes) -> None:
        if not self.enabled:
            return
        self.reports += 1
        self.samples += 1
        self.bus.publish_subject(subject, sender=self.name, **attributes)

    def flush(self) -> None:
        """Publish any buffered observations as one batch message."""
        values = self._pending_values
        if not values:
            return
        times = self._pending_times
        self._flushed_to = times[-1]
        try:
            if self.enabled:
                self.reports += 1
                self.samples += len(values)
                self.batches += 1
                self.bus.publish_subject(
                    self.name,
                    sender=self.name,
                    times=tuple(times),
                    values=tuple(values),
                    target=self.target,
                )
        finally:  # published, disabled or refused: the buffer starts over
            times.clear()
            values.clear()


class ClientLatencyProbe(_Probe):
    """Event probe on a client's response path (AIDE-style instrumentation)."""

    def __init__(self, sim: Simulator, bus: EventBus, client: Client):
        super().__init__(sim, bus, f"probe.latency.{client.name}")
        self.client = client
        client.on_response(self._on_response)

    def _on_response(self, req) -> None:
        self.publish(
            f"probe.latency.{self.client.name}",
            client=self.client.name,
            rid=req.rid,
            latency=req.latency,
            group=req.group,
        )


class _PeriodicProbe(_Probe):
    """A probe that samples every ``period`` seconds once started."""

    def __init__(
        self, sim: Simulator, bus: EventBus, name: str, period: float, batch: int = 1
    ):
        super().__init__(sim, bus, name, batch)
        if period <= 0:
            raise ValueError(f"probe period must be positive, got {period}")
        self.period = float(period)
        #: identity of the live tick chain (None: stopped); a pending
        #: tick that carries another token belongs to a stopped chain
        self._ticker: Optional[object] = None

    def start(self) -> None:
        if self._ticker is not None:
            raise RuntimeError(f"probe {self.name} already started")
        self._ticker = ticker = object()
        # the first sample runs via the scheduler, never inside start()
        self.sim.schedule(0.0, self._tick, ticker)

    def stop(self) -> None:
        self._ticker = None

    def _tick(self, ticker: object) -> None:
        if ticker is not self._ticker:
            return
        self.sample()
        self.sim.schedule(self.period, self._tick, ticker)

    def sample(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class QueueLengthProbe(_PeriodicProbe):
    """Samples a group's waiting-request count (the paper's server load)."""

    def __init__(
        self,
        sim: Simulator,
        bus: EventBus,
        app: GridApplication,
        group: str,
        period: float = 1.0,
    ):
        super().__init__(sim, bus, f"probe.load.{group}", period)
        self.app = app
        self.group = group

    def sample(self) -> None:
        self.publish(
            f"probe.load.{self.group}",
            group=self.group,
            length=float(self.app.group(self.group).load),
        )


class BandwidthProbe(_PeriodicProbe):
    """Asks Remos for client <-> current-group bandwidth every period.

    Uses the group's *worst* active member path (see
    :meth:`GridApplication.bandwidth_between`): requests are dispatched to
    any member, so that is the bandwidth a client can count on.  The Remos
    query itself is asynchronous; the observation is published when the
    answer arrives (warm queries: ~0.5 s; cold: the paper's minutes —
    which is why the experiment pre-queries).
    """

    def __init__(
        self,
        sim: Simulator,
        bus: EventBus,
        app: GridApplication,
        remos: RemosService,
        client: str,
        period: float = 5.0,
    ):
        super().__init__(sim, bus, f"probe.bandwidth.{client}", period)
        self.app = app
        self.remos = remos
        self.client = client

    def sample(self) -> None:
        group = self.app.rq.assignment_of(self.client)
        members = self.app.group(group).active_members
        if not members:
            return
        client_machine = self.app.client(self.client).machine
        # Worst member path: one Remos query per member, publish the min.
        pending = {"n": len(members), "min": float("inf")}
        for member in members:
            ev = self.remos.get_flow(member.machine, client_machine)
            ev.add_callback(lambda e, p=pending, g=group: self._collect(e.value, p, g))

    def _collect(self, bw: float, pending: dict, group: str) -> None:
        pending["min"] = min(pending["min"], bw)
        pending["n"] -= 1
        if pending["n"] == 0:
            self.publish(
                f"probe.bandwidth.{self.client}",
                client=self.client,
                group=group,
                bandwidth=pending["min"],
            )


class StageBacklogProbe(_PeriodicProbe):
    """Samples a pipeline stage's waiting-item count.

    The pipeline scenario's analogue of :class:`QueueLengthProbe`; the
    observed application only needs ``backlog(stage) -> int``.
    """

    def __init__(
        self,
        sim: Simulator,
        bus: EventBus,
        app,
        stage: str,
        period: float = 1.0,
    ):
        super().__init__(sim, bus, f"probe.backlog.{stage}", period)
        self.app = app
        self.stage = stage

    def sample(self) -> None:
        self.publish(
            f"probe.backlog.{self.stage}",
            stage=self.stage,
            length=float(self.app.backlog(self.stage)),
        )


class StageUtilizationProbe(_PeriodicProbe):
    """Samples a pipeline stage's worker occupancy (busy / width).

    Feeds the pipeline style's shrink repair the same way
    :class:`UtilizationProbe` feeds the server-group one: an instantaneous
    snapshot the utilization gauge's EWMA smooths into a trend.
    """

    def __init__(
        self,
        sim: Simulator,
        bus: EventBus,
        app,
        stage: str,
        period: float = 1.0,
    ):
        super().__init__(sim, bus, f"probe.utilization.{stage}", period)
        self.app = app
        self.stage = stage

    def sample(self) -> None:
        stage = self.app.stage(self.stage)
        self.publish(
            f"probe.utilization.{self.stage}",
            stage=self.stage,
            utilization=stage.busy / max(1, stage.width),
        )


class CallbackProbe(_PeriodicProbe):
    """Generic periodic probe: publishes ``float(fn())`` as ``value``.

    The zero-boilerplate way to instrument a new application: pair it
    with one of the generic value gauges (:class:`WindowedMeanGauge`,
    :class:`EwmaGauge`, :class:`LatestValueGauge`), which consume the
    ``value`` attribute from ``probe.<kind>.<target>`` subjects.  The
    master/worker scenario is built entirely from these.

    With ``batch > 1`` the probe runs in batch emission mode: each
    observation is buffered with its capture time and every ``batch``-th
    sample flushes the buffer as one ``times``/``values`` message
    (see :meth:`_Probe.flush`).  The paired gauge then takes one delivery
    per flush instead of one per sample; capture times ride in the
    message, so windowed aggregates see the observation times, not the
    delivery time.
    """

    def __init__(
        self,
        sim: Simulator,
        bus: EventBus,
        kind: str,
        target: str,
        fn: Callable[[], float],
        period: float = 1.0,
        batch: int = 1,
    ):
        super().__init__(sim, bus, f"probe.{kind}.{target}", period, batch)
        self.kind = kind
        self.target = target
        self.fn = fn

    def sample(self) -> None:
        if self.batch == 1:
            self.publish(self.name, target=self.target, value=float(self.fn()))
            return
        self._pending_times.append(self.sim.now)
        self._pending_values.append(float(self.fn()))
        if len(self._pending_values) >= self.batch:
            self.flush()

    def stop(self) -> None:
        self.flush()
        super().stop()


class IngestProbe(_Probe):
    """Bus-ingested telemetry: samples pushed from *outside* the plane.

    Where :class:`CallbackProbe` pulls (it samples a function on a
    period), an ingest probe is push-fed: an external application — an
    HTTP handler, an asyncio server, another process behind ``repro
    serve``'s ``POST /ingest`` — hands observations in and the probe
    publishes them on the probe bus under the usual
    ``probe.<kind>.<target>`` subject, so the downstream gauge/updater
    wiring is identical to the simulated plane's.

    ``ingest`` must run on the thread that owns the bus; external
    callers go through
    :meth:`~repro.realtime.driver.RealtimeDriver.ingest`, which hops
    onto the scheduler via ``call_soon_threadsafe``.  With ``batch > 1``
    samples buffer (with capture times) and flush as one
    ``times``/``values`` message, which is the mode a high-rate external
    feed should run.
    """

    def __init__(
        self,
        sim: Simulator,
        bus: EventBus,
        kind: str,
        target: str,
        batch: int = 1,
    ):
        super().__init__(sim, bus, f"probe.{kind}.{target}", batch)
        self.kind = kind
        self.target = target
        #: samples dropped for a capture time out of order or in the future
        self.late = 0

    def ingest(self, value: float, time: Optional[float] = None) -> None:
        """Publish (or buffer) one externally captured observation.

        ``time`` is the capture time on the scheduler's logical
        timeline; it defaults to the current instant, which is also the
        arrival stamp ``call_soon_threadsafe`` injection gives pushed
        samples.  A non-finite ``value`` or ``time`` is refused with
        ``ValueError`` here, at the door: past it, a NaN would raise
        inside a gauge's bus delivery on the scheduler's thread
        (:class:`EwmaGauge`) or sit in the model where no threshold
        comparison ever sees it.  A finite ``time`` that no gauge window
        could take — later than the scheduler's ``now``, or earlier than
        the newest capture time this probe has buffered or flushed — is
        a late sample, not a caller to raise to (it arrives on the loop):
        it is dropped and counted in :attr:`late`.  An unbatched probe's
        message is stamped when published, so there ``time`` is only
        checked for being a number.
        """
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"{self.name}: sample value must be finite, got {value}")
        if self.batch == 1:
            if time is not None:
                self._capture_time(time)
            self.publish(self.name, target=self.target, value=value)
            return
        if time is None:
            self._pending_times.append(self.sim.now)
        else:
            time = self._capture_time(time)
            pending = self._pending_times
            newest = pending[-1] if pending else self._flushed_to
            if not newest <= time <= self.sim.now:
                self.late += 1
                return
            pending.append(time)
        self._pending_values.append(value)
        if len(self._pending_values) >= self.batch:
            self.flush()

    def _capture_time(self, time: float) -> float:
        time = float(time)
        if not isfinite(time):
            raise ValueError(f"{self.name}: capture time must be finite, got {time}")
        return time

    def stop(self) -> None:
        """Flush the buffered tail (the driver calls this on shutdown)."""
        self.flush()


class UtilizationProbe(_PeriodicProbe):
    """Samples a group's mean compute utilization (for the shrink repair)."""

    def __init__(
        self,
        sim: Simulator,
        bus: EventBus,
        app: GridApplication,
        group: str,
        period: float = 5.0,
    ):
        super().__init__(sim, bus, f"probe.utilization.{group}", period)
        self.app = app
        self.group = group
        self._last_busy = 0.0
        self._last_time: Optional[float] = None

    def sample(self) -> None:
        group = self.app.group(self.group)
        busy = sum(s.busy_time for s in group.members)
        now = self.sim.now
        if self._last_time is not None and now > self._last_time:
            capacity = max(1, group.replication) * (now - self._last_time)
            utilization = max(0.0, min(1.0, (busy - self._last_busy) / capacity))
            self.publish(
                f"probe.utilization.{self.group}",
                group=self.group,
                utilization=utilization,
            )
        self._last_busy = busy
        self._last_time = now
