"""The realtime driver: one control plane over one live application.

:class:`RealtimeDriver` is the online analogue of a scenario's
experiment object: it builds an
:class:`~repro.runtime.core.AdaptationRuntime` from the same
:class:`~repro.runtime.spec.AdaptationSpec` +
:class:`~repro.runtime.app.ManagedApplication` contract the simulated
scenarios use, but mounts it on a
:class:`~repro.realtime.scheduler.RealtimeScheduler` so probes sample,
gauges report, invariants evaluate, and committed repairs actuate in
wall-clock time against a *running* application.

Three seams connect the plane to the outside world:

* **telemetry in** — :meth:`ingest` pushes an externally captured
  sample to a named :class:`~repro.monitoring.probes.IngestProbe`; it
  is safe from any thread (the sample hops onto the scheduler via
  ``call_soon_threadsafe`` and is published on the probe bus there);
* **effectors out** — the spec's intent executor calls back into the
  live application; executors for threaded/asyncio apps must make that
  callback thread-safe (e.g. ``loop.call_soon_threadsafe``);
* **inspection** — :meth:`stats` / :attr:`history` serve the same
  :class:`~repro.runtime.stats.RuntimeStats` / repair-history surfaces
  ``repro serve`` exposes over HTTP.

With the default :class:`~repro.realtime.clock.WallClock`,
:meth:`start`/:meth:`stop` run the loop on a daemon thread.  With a
:class:`~repro.realtime.clock.FakeClock`, :meth:`run_until` runs the
loop in the calling thread as fast as the host allows — the
deterministic mode the realtime test suite pins.
"""

from __future__ import annotations

import threading
from math import isfinite
from typing import Dict, Optional, Tuple

from repro.monitoring.probes import IngestProbe
from repro.realtime.clock import Clock
from repro.realtime.scheduler import RealtimeScheduler
from repro.runtime.app import ManagedApplication
from repro.runtime.core import AdaptationRuntime
from repro.runtime.spec import AdaptationSpec
from repro.runtime.stats import RuntimeStats
from repro.sim.trace import Trace

__all__ = ["RealtimeDriver"]


class RealtimeDriver:
    """Owns a scheduler + adaptation runtime over a live application."""

    def __init__(
        self,
        app: ManagedApplication,
        spec: AdaptationSpec,
        clock: Optional[Clock] = None,
        trace: Optional[Trace] = None,
    ):
        self.scheduler = RealtimeScheduler(clock)
        self.clock = self.scheduler.clock
        self.app = app
        self.runtime = AdaptationRuntime(self.scheduler, app, spec, trace=trace)
        self._ingest_probes: Dict[Tuple[str, str], IngestProbe] = {
            (probe.kind, probe.target): probe
            for probe in self.runtime.probes
            if isinstance(probe, IngestProbe)
        }
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._runtime_started = False
        self._stopped = False
        self.ingested = 0
        #: accepted samples a stop() that timed out could not run
        self.dropped = 0
        #: what ended the loop thread, if it raised (``/health`` reports it)
        self.error: Optional[BaseException] = None

    # -- telemetry ingestion (any thread) ----------------------------------
    def ingest_targets(self) -> Tuple[Tuple[str, str], ...]:
        """The (kind, target) pairs external samples may address."""
        return tuple(sorted(self._ingest_probes))

    def ingest(
        self, kind: str, target: str, value: float, time: Optional[float] = None
    ) -> None:
        """Push one externally captured sample into the probe bus.

        Thread-safe: the sample crosses onto the scheduler thread and is
        published there.  Unknown (kind, target) pairs raise ``KeyError``
        — the wiring audit's WIR402 is the static half of that check —
        and a non-finite ``value`` or ``time`` raises ``ValueError``:
        both here, on the caller's thread, because past the hop there is
        nobody to raise to but the loop every other sample depends on.
        Whether a finite ``time`` is in order only the loop can tell: a
        late sample is dropped and counted there
        (:attr:`IngestProbe.late`, ``stats().telemetry["late"]``).  After
        :meth:`stop` nothing would run the sample: ``RuntimeError``.
        """
        probe = self._ingest_probes.get((kind, target))
        if probe is None:
            raise KeyError(
                f"no IngestProbe for ({kind!r}, {target!r}); "
                f"declared: {self.ingest_targets()}"
            )
        value = float(value)
        if not isfinite(value):
            raise ValueError(
                f"sample value for ({kind!r}, {target!r}) must be finite, got {value}"
            )
        if time is not None and not isfinite(time):
            raise ValueError(
                f"capture time for ({kind!r}, {target!r}) must be finite, got {time}"
            )
        if self._stopped:
            raise RuntimeError("the driver is stopped: no loop would run this sample")
        self.ingested += 1
        # the class's function, not a bound method: one function for every
        # probe, so a drain of samples is one kernel run (and a wrapper
        # set on the class after the build is the one that runs)
        self.scheduler.call_soon_threadsafe(type(probe).ingest, probe, value, time)

    # -- lifecycle ---------------------------------------------------------
    def _start_runtime_once(self) -> None:
        if not self._runtime_started:
            self._runtime_started = True
            self.runtime.start()

    def start(self) -> None:
        """Start probes and run the paced loop on a daemon thread."""
        if self._started:
            raise RuntimeError("RealtimeDriver already started")
        self._started = True
        self._start_runtime_once()
        self._thread = threading.Thread(
            target=self._serve, name="repro-realtime", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        """The loop thread: a raise ends it, so keep what raised for
        :attr:`error` before the thread's excepthook reports it."""
        try:
            self.scheduler.run()
        except BaseException as exc:
            self.error = exc
            raise

    def run_until(self, horizon: float) -> None:
        """Run the loop in the calling thread up to logical ``horizon``.

        The deterministic entry point: with a
        :class:`~repro.realtime.clock.FakeClock` this executes the exact
        schedule a wall clock would, instantly and repeatably.
        """
        if self._started:
            raise RuntimeError("driver already running on a thread")
        self._start_runtime_once()
        self.scheduler.run(until=horizon)

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop the loop, join the thread, and flush buffered telemetry.

        The loop checks for the stop between two actions, and a kernel
        run (a drain's samples of one probe class) is one action.
        Samples :meth:`ingest` accepted that the loop never took in run
        here, on the calling thread, at the loop's last instant, so each
        accepted sample is published or counted late.  If the loop is
        still inside an action after ``join_timeout``, it returns from
        that action without another drain, and what it left queued is
        counted in :attr:`dropped` instead.  The hand-over takes no lock,
        so a sample another thread hands over while this runs may land
        after it: stop the producers first.
        """
        self._stopped = True
        self.scheduler.stop()
        loop_ended = True
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
            loop_ended = not self._thread.is_alive()
            self._thread = None
        leftover = self.scheduler.take_injected()
        if loop_ended:
            for fn, args in leftover:
                fn(*args)
        else:
            self.dropped += len(leftover)
        self.runtime.stop()
        for probe in self._ingest_probes.values():
            probe.flush()

    # -- inspection --------------------------------------------------------
    @property
    def history(self):
        return self.runtime.history

    def stats(self) -> RuntimeStats:
        return self.runtime.stats()
