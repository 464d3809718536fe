"""The event loop: simulation clock, agenda of instants, and waitable events.

The kernel has two ways in: :meth:`Simulator.schedule` (and
``schedule_at``) queues one plain action, ``fn(*args)``, and
:meth:`Simulator.schedule_items` queues items of one function stored
flat.  Same-instant items of one function are one *run*: one action,
its items' fields stored flat.  Most runs are played an item at a time,
``fn(*item)``.  A function marked with :func:`takes_whole_runs` is
handed the run *whole* instead: called once, with an iterator over the
run's fields, which it takes an item at a time (``zip(fields, fields)``
for width two) — so a thousand gauge ticks due together are one call
that reads every value and hands the reports and the re-arms on in one
call each.  Either way the tail rule is the kernel's: if the call
raises, whatever the iterator has not yet yielded goes back to the head
of the instant.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import islice
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.errors import SimulationError

__all__ = ["Simulator", "Event", "Timeout", "takes_whole_runs"]

#: one instant's line of pending actions, in scheduling order.  An action
#: is two consecutive items — ``fn``, then its ``args`` tuple — not a pair
#: object: a pair is one more allocation the cyclic collector counts and
#: tracks for every message in flight.  A *run* is the action ``_RUN``,
#: then the list ``[fn, width, fields of item 1, fields of item 2, ...]``.
_Fifo = Deque[Any]

#: the kernel's own tag for a run: no caller's function is ever taken for one
_RUN = object()

#: the functions :func:`takes_whole_runs` marked
_WHOLE: Set[Callable[..., Any]] = set()


def takes_whole_runs(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark ``fn`` as taking its runs whole (see the module docstring):
    played, it gets one argument, an iterator over every item's fields
    in order, and takes them an item at a time."""
    _WHOLE.add(fn)
    return fn


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    Lifecycle: *pending* -> ``succeed(value)`` or ``fail(exception)``.
    Callbacks added after triggering fire immediately (same-time semantics),
    which keeps process wakeup order deterministic.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_ok", "_value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._triggered = False
        self._ok = True
        self._value: Any = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        self._trigger(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if not isinstance(exception, BaseException):
            raise TypeError("Event.fail requires an exception instance")
        self._trigger(False, exception)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        for cb in callbacks:
            cb(self)

    # -- waiting ----------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` when the event triggers.

        If the event already triggered, the callback runs synchronously now.
        """
        if self._callbacks is None:
            callback(self)
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = float(delay)
        sim.schedule(self.delay, self.succeed, value)


class Simulator:
    """Deterministic discrete-event scheduler.

    * ``schedule(delay, fn, *args)`` runs ``fn`` at ``now + delay``;
    * ties break in scheduling order: the agenda is a heap of the
      *distinct* pending instants plus one FIFO of actions per instant,
      so a thousand actions due at one time cost one heap entry, and an
      action scheduled for ``now`` while ``now`` is running joins the
      back of the line;
    * ``schedule_items(delay, fn, width, fields)`` runs ``fn(*item)``
      for each ``width``-field item of ``fields`` at ``now + delay`` in
      the same order, but an item joins the *run* of ``fn`` when that
      run is the last action already queued at its instant: a thousand
      same-instant deliveries are one action whose items are stored
      flat, with no ``args`` tuple each.  One :meth:`step` executes a
      whole run (see the module docstring
      for the functions that take it whole); a handler that raises
      mid-run leaves the unrun tail at the head of the instant, where
      the next step resumes it;
    * ``run(until)`` executes all work up to and including ``until`` and
      leaves ``now == until``.

    ``now`` is a plain attribute, read on every probe stamp and message:
    only the kernel (and its subclasses' run loops) assigns it.

    Every FIFO in the agenda is non-empty: an instant is forgotten the
    moment its last action is taken off, so a long-running service
    retains nothing for the instants it has passed.
    """

    def __init__(self) -> None:
        #: the current simulated time (see the class docstring)
        self.now = 0.0
        self._times: List[float] = []
        self._agenda: Dict[float, _Fifo] = {}
        self._running = False

    # -- scheduling -------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:  # negative, or NaN (which no comparison admits)
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = float(self.now + delay)
        # the plane's most-called method: a crowded instant's line is
        # found with one dict hit and no call
        fifo = self._agenda.get(time)
        if fifo is None:
            fifo = self._fifo(time)
        fifo.append(fn)
        fifo.append(args)

    def schedule_items(
        self, delay: float, fn: Callable[..., Any], width: int, fields: Sequence[Any]
    ) -> None:
        """Run ``fn(*item)`` for each item stored flat in ``fields``,
        ``width`` fields each, after ``delay`` seconds, as :meth:`schedule`
        per item would, joining the run of ``fn`` that ends its instant's
        line.

        Only a run of the same ``fn`` and width, queued last and not yet
        started, is joined; anything else queued after it (or a run
        already executing) starts a new one, so execution order is
        exactly that of one :meth:`schedule` per item.  A NaN or
        negative delay is refused, and so is an item with no field.
        """
        if not delay >= 0:  # negative, or NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if width < 1 or len(fields) % width:
            raise TypeError(f"{len(fields)} fields are no items of width {width}")
        time = float(self.now + delay)
        fifo = self._agenda.get(time)
        if fifo is None:
            fifo = self._fifo(time)
        elif fifo[-2] is _RUN:
            # _line_up's join, inlined: a crowded instant's items join
            # its run with no call (the plane's most frequent schedule)
            run = fifo[-1]
            if run[0] is fn and run[1] == width:
                run.extend(fields)
                return
        self._line_up(fifo, fn, width, fields)

    @staticmethod
    def _line_up(
        fifo: _Fifo, fn: Callable[..., Any], width: int, fields: Sequence[Any]
    ) -> None:
        """Queue the items of ``fn`` in ``fields``, ``width`` fields each,
        at the back of ``fifo``, as :meth:`schedule_items` would: they
        join the run of ``fn`` that ends the line when that run has
        their width, and open a new run otherwise; width 0 is one plain
        action ``fn()``.  The one place a run is laid out
        (see ``_Fifo``)."""
        if not width:
            fifo.append(fn)
            fifo.append(())
            return
        if fifo and fifo[-2] is _RUN:
            run = fifo[-1]
            if run[0] is fn and run[1] == width:
                run.extend(fields)
                return
        fifo.append(_RUN)
        fifo.append([fn, width, *fields])

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:  # earlier, or NaN: a key no lookup finds again
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        fifo = self._fifo(float(time))
        fifo.append(fn)
        fifo.append(args)

    def _fifo(self, time: float) -> _Fifo:
        """The line of actions due at ``time``, opened if there is none."""
        fifo = self._agenda.get(time)
        if fifo is None:
            fifo = self._agenda[time] = deque()
            heappush(self._times, time)
        return fifo

    # -- waitable factories ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    # -- execution ----------------------------------------------------------
    def step(self) -> bool:
        """Execute the earliest pending action (a whole run counts as
        one); False when queue is empty."""
        times = self._times
        if not times:
            return False
        time = times[0]
        fifo = self._agenda[time]
        fn = fifo.popleft()
        args = fifo.popleft()
        if not fifo:
            heappop(times)
            del self._agenda[time]
        self.now = time
        if fn is _RUN:
            self._play(time, args)
        else:
            fn(*args)
        return True

    def _play(self, time: float, run: List[Any]) -> None:
        """Execute a run: its items in order, or, for a function marked
        :func:`takes_whole_runs`, one call with an iterator over the
        fields.  The run left the line when it started, so nothing
        joins it now; if the call raises, what the iterator has not
        yielded — the unrun tail — goes back to the head of the instant
        before the re-raise."""
        fn = run[0]
        whole = fn in _WHOLE
        width = run[1]
        if not whole and len(run) == 2 + width:  # one item: no tail
            fn(*run[2:])
            return
        items = islice(run, 2, None)
        try:
            if whole:
                fn(items)
            else:
                for item in zip(*(items,) * width):
                    fn(*item)
        except BaseException:
            tail = list(items)
            if tail:
                run[2:] = tail
                fifo = self._fifo(time)
                fifo.appendleft(run)
                fifo.appendleft(_RUN)
            raise

    def peek(self) -> Optional[float]:
        """Time of the next pending action, or None."""
        return self._times[0] if self._times else None

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time would pass ``until``.

        With ``until`` given, all actions scheduled at exactly ``until``
        still execute, and the clock finishes at ``until`` even if the queue
        drained earlier.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            if until is None:
                while self.step():
                    pass
                return
            if not until >= self.now:  # earlier, or NaN
                raise SimulationError(
                    f"run(until={until}) is in the past (now={self.now})"
                )
            times = self._times
            while times and times[0] <= until:
                self.step()
            self.now = float(until)
        finally:
            self._running = False
