"""A wall-clock pacemaker behind the simulator's scheduling interface.

:class:`RealtimeScheduler` is a :class:`~repro.sim.kernel.Simulator`
whose run loop *paces* the agenda against a
:class:`~repro.realtime.clock.Clock` instead of draining it: an action
scheduled for logical time ``t`` executes once ``clock.elapsed() >= t``.
Everything built on the simulator interface — processes, the event bus,
gauges, the repair engine, the whole
:class:`~repro.runtime.core.AdaptationRuntime` — runs unmodified on
either plane; the logical timeline (``now``, timeout delays, trace
timestamps) is identical in kind, it just advances in step with the
clock.

The loop's unit of work is the kernel's: one *instant* — every action
sharing the earliest pending time, in scheduling order.  Per instant it
takes in injected work once, decides once whether to wait, and samples
the lag behind the clock once (after the instant's last action, which
is where the lag is largest); only the check for :meth:`stop` happens
between actions, and a kernel run (a thousand same-instant deliveries
or gauge ticks, see :meth:`~repro.sim.kernel.Simulator.schedule_items`)
is one action.  A thousand gauge ticks due together, or a thousand
samples injected together, cost one pass; the samples are one action
too (one run, see below), so a :meth:`stop` waits for at most one
drain's samples.

Two additions over the simulated kernel:

* :meth:`call_soon_threadsafe` — the *only* sanctioned way to hand work
  to the scheduler from another thread (an HTTP handler, an asyncio
  loop).  Injected callbacks run in injection order; the sleeping loop
  wakes immediately.  Consecutive calls of one function and item width
  (``RealtimeDriver.ingest`` injects ``IngestProbe.ingest`` with the
  probe as a field) join one kernel run; a zero-argument call is a
  plain action.  They are stamped with the clock's elapsed time
  when the loop next takes them in, which is between two instants, not
  between two actions: under a wall clock that is later than "on
  arrival" by at most the run time of the instant in progress, and
  everything taken in together shares one stamp.  The hand-over takes
  no lock (see the method): what an injection costs must not depend on
  how the producer and the loop happen to interleave.
* :meth:`stop` — ends :meth:`run` from any thread, between two
  actions, without a last drain: :meth:`take_injected` hands over what
  the loop never took in.  A realtime run with no horizon is a service:
  an empty agenda means *idle*, not *done*.

Determinism: with a :class:`~repro.realtime.clock.FakeClock` the waits
advance logical time instantly and running an action takes no time, so
a scripted schedule executes the exact event sequence, with the exact
stamps, a wall clock would — repeatably.  The realtime test suite pins
this (same seed + same injected telemetry => identical repair history),
and ``tests/test_kernel_order_oracle.py`` pins the loop against a plain
statement of this contract.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.realtime.clock import Clock, WallClock
from repro.sim.kernel import Simulator

__all__ = ["RealtimeScheduler"]

#: longest idle wait between wakeup checks when no event is pending
_IDLE_WAIT = 0.5


class RealtimeScheduler(Simulator):
    """Drop-in simulator that executes events in step with a clock."""

    def __init__(self, clock: Optional[Clock] = None):
        super().__init__()
        self.clock: Clock = clock if clock is not None else WallClock()
        self._wakeup = threading.Event()
        #: True from a producer's wakeup until the loop's next drain (see
        #: call_soon_threadsafe); a plain attribute, read without a call
        self._wake_pending = False
        self._stop_requested = False
        # crossed without a lock, see call_soon_threadsafe
        self._injected: Deque[Tuple[Callable[..., Any], Tuple[Any, ...]]] = deque()
        #: actions executed (a run is one) / worst lateness behind the clock
        self.executed = 0
        self.max_lag = 0.0

    # -- cross-thread seam -------------------------------------------------
    def call_soon_threadsafe(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` on the scheduler thread, stamped when taken in.

        Safe from any thread; injection order is execution order.  This
        is how external telemetry enters the plane: an ingest endpoint
        or asyncio callback pushes ``probe.ingest`` work here instead of
        touching the (single-threaded) bus directly.

        No lock is held or waited for, as in asyncio's method of the
        same name: ``deque.append`` and ``popleft`` are atomic, any
        number of producers append and only the loop pops.  A lock
        taken here per call and by the loop per pass would let the two
        threads fall into step on it — one hand-over of the interpreter
        lock per sample, the loop's passes shrunk to a sample or two —
        in some runs and not in others.  For the same reason the wakeup
        event (a lock of its own) is set only by the first producer
        after a drain, and what says "already signalled" is a plain
        flag, ``_wake_pending``, not the event's ``is_set()`` (a call
        per sample).

        Why no entry waits past a drain.  A producer appends, *then*
        reads the flag; on False it sets the flag, *then* the event.
        The loop clears the flag, *then* the event, *then* drains, and
        passes again without waiting when a drain took anything in.  A
        producer that reads True reads it before the loop's next clear,
        so the drain after that clear counts its entry.  That drain
        comes: the flag's setter set the event after its own append, so
        either the event is still set when the loop next waits, or the
        loop cleared it afterwards and its drain took the setter's entry
        in and passed again.  A producer that reads False sets the event
        itself, after its append.
        """
        self._injected.append((fn, args))
        if not self._wake_pending:
            self._wake_pending = True
            self._wakeup.set()

    def stop(self) -> None:
        """Ask a running :meth:`run` loop to return (thread-safe)."""
        self._stop_requested = True
        self._wakeup.set()

    @property
    def stopped(self) -> bool:
        return self._stop_requested

    def take_injected(self) -> List[Tuple[Callable[..., Any], Tuple[Any, ...]]]:
        """Take what was injected and never taken in, as ``(fn, args)``
        pairs in injection order.

        For after a :meth:`stop`: it ends :meth:`run` without a last
        drain, and a stopped scheduler never runs again.
        """
        injected = self._injected
        taken = []
        while injected:
            taken.append(injected.popleft())
        return taken

    # -- paced execution ---------------------------------------------------
    def _drain_injected(self) -> int:
        injected = self._injected
        count = len(injected)  # later arrivals wait for the next drain's stamp
        if count:
            # one arrival stamp for the lot: they join one instant's line
            # as kernel-run items, so a flood of one function is one
            # run, handed to _line_up as one flat field list per stretch
            # of one function and width.  A producer's append has to stay
            # one atomic (fn, args) pair — two appends from two threads
            # could interleave
            fifo = self._fifo(max(self.now, self.clock.elapsed()))
            line_up = self._line_up
            taken = iter(injected.popleft, None)
            fn, args = next(taken)
            fields = [*args]
            for next_fn, next_args in islice(taken, count - 1):
                if next_fn is fn and len(next_args) == len(args) and args:
                    fields += next_args
                else:
                    line_up(fifo, fn, len(args), fields)
                    fn, args = next_fn, next_args
                    fields = [*args]
            line_up(fifo, fn, len(args), fields)
        return count

    def run(self, until: Optional[float] = None) -> None:
        """Pace the agenda against the clock until ``until`` or :meth:`stop`.

        Each pass of the loop takes in what other threads injected,
        decides whether to wait, and then runs one due *instant* — every
        action sharing the earliest pending time, in scheduling order —
        checking for :meth:`stop` between actions.

        With ``until`` given, the loop returns once logical time reaches
        it (events scheduled at exactly ``until`` still execute) and
        leaves ``now == until``, mirroring the simulated kernel.  With
        ``until=None`` the loop runs as a service until :meth:`stop`.
        """
        if self._running:
            raise RuntimeError("RealtimeScheduler.run is not reentrant")
        self._running = True
        times = self._times
        try:
            while not self._stop_requested:
                # clear, then drain: call_soon_threadsafe relies on the order
                self._wake_pending = False
                self._wakeup.clear()
                if self._drain_injected():
                    continue  # re-evaluate the head with injections queued
                due = self.peek()
                if until is not None and (due is None or due > until):
                    if self.clock.elapsed() >= until:
                        break
                    self.clock.wait(
                        min(_IDLE_WAIT, until - self.clock.elapsed()),
                        self._wakeup,
                    )
                    continue
                if due is None:
                    self.clock.wait(_IDLE_WAIT, self._wakeup)
                    continue
                wait = due - self.clock.elapsed()
                if wait > 0:
                    self.clock.wait(wait, self._wakeup)
                    continue  # re-check: an injection may precede the head
                while True:
                    self.step()
                    self.executed += 1
                    if self._stop_requested or not times or times[0] != due:
                        break
                # ``now`` held still and the clock only moves forward, so
                # this is the largest lag any action of the instant saw
                lag = self.clock.elapsed() - self.now
                if lag > self.max_lag:
                    self.max_lag = lag
            if until is not None and not self._stop_requested:
                self.now = float(until)
        finally:
            self._running = False
