"""The wall-clock execution plane.

Everything else in the repro runs inside the discrete-event simulator;
this package runs the *same* control plane against real time and a real
application:

* :mod:`repro.realtime.clock` — the sanctioned wall-clock seam
  (:class:`WallClock`) and its deterministic test double
  (:class:`FakeClock`), mirroring how ``util/rng.py`` is the one place
  ambient randomness may enter;
* :mod:`repro.realtime.scheduler` — :class:`RealtimeScheduler`, a
  drop-in :class:`~repro.sim.kernel.Simulator` whose run loop paces
  the kernel's agenda against a clock, one due instant per pass,
  instead of draining it;
* :mod:`repro.realtime.driver` — :class:`RealtimeDriver`, which owns a
  scheduler thread, an :class:`~repro.runtime.core.AdaptationRuntime`
  over a live :class:`~repro.runtime.app.ManagedApplication`, and the
  thread-safe telemetry ingestion seam
  (:meth:`~repro.realtime.driver.RealtimeDriver.ingest`);
* :mod:`repro.realtime.demo` — the live-adaptation demo: an asyncio
  HTTP worker pool adapted under a wrk-style load generator.

See docs/serving.md for the wall-clock vs simulated-time semantics.
"""

from repro.realtime.clock import Clock, FakeClock, WallClock
from repro.realtime.driver import RealtimeDriver
from repro.realtime.scheduler import RealtimeScheduler

__all__ = [
    "Clock",
    "FakeClock",
    "WallClock",
    "RealtimeDriver",
    "RealtimeScheduler",
]
