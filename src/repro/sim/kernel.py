"""The event loop: simulation clock, agenda of instants, and waitable events."""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import islice
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

__all__ = ["Simulator", "Event", "Timeout", "AnyOf", "AllOf"]

#: one instant's line of pending actions, in scheduling order.  An action
#: is two consecutive items — ``fn``, then its ``args`` tuple — not a pair
#: object: a pair is one more allocation the cyclic collector counts and
#: tracks for every message in flight.  A *run* is the action ``_RUN``,
#: then the list ``[fn, width, fields of item 1, fields of item 2, ...]``.
_Fifo = Deque[Any]

#: a call to queue: ``(fn, args)``
_Call = Tuple[Callable[..., Any], Tuple[Any, ...]]

#: the kernel's own tag for a run: no caller's function is ever taken for one
_RUN = object()


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


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Sequence[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Succeeds as soon as any child event triggers; value = that event.

    A failing child fails the condition (failure is significant).
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.ok:
            self.succeed(ev)
        else:
            self.fail(ev.value)


class AllOf(_Condition):
    """Succeeds once every child has triggered; value = list of child values."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self.events])


class Simulator:
    """Deterministic discrete-event scheduler.

    * ``schedule(delay, fn, *args)`` runs ``fn`` at ``now + delay``;
    * ties break in scheduling order: the agenda is a heap of the
      *distinct* pending instants plus one FIFO of actions per instant,
      so a thousand actions due at one time cost one heap entry, and an
      action scheduled for ``now`` while ``now`` is running joins the
      back of the line;
    * ``schedule_run(delay, fn, *item)`` runs ``fn(*item)`` at
      ``now + delay`` in the same order, but an item joins the *run* of
      ``fn`` when that run is the last action already queued at its
      instant: a thousand same-instant deliveries are one action whose
      items are stored flat, with no ``args`` tuple each.  One
      :meth:`step` executes a whole run; a handler that raises mid-run
      leaves the unrun tail at the head of the instant, where the next
      step resumes it;
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

    def schedule_run(self, delay: float, fn: Callable[..., Any], *item: Any) -> None:
        """Run ``fn(*item)`` after ``delay`` seconds, as :meth:`schedule`
        would, joining the run of ``fn`` that ends its instant's line.

        Only a run of the same ``fn`` and item width, queued last and
        not yet started, is joined; anything else queued after it (or a
        run already executing) starts a new one, so execution order is
        exactly that of one :meth:`schedule` per item.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if not item:
            raise TypeError("schedule_run needs at least one item field")
        time = float(self.now + delay)
        fifo = self._agenda.get(time)
        if fifo is None:
            fifo = self._fifo(time)
        elif fifo[-2] is _RUN:
            # _line_up's join, inlined: a crowded instant's item joins
            # its run with no call (the plane's most frequent schedule)
            run = fifo[-1]
            if run[0] is fn and run[1] == len(item):
                run.extend(item)
                return
        self._line_up(fifo, [(fn, item)])

    @staticmethod
    def _line_up(fifo: _Fifo, calls: Iterable[_Call]) -> None:
        """Queue ``calls``, ``(fn, item)`` pairs, at the back of ``fifo``
        in order, each as :meth:`schedule_run` would: an item joins the
        run of ``fn`` that ends the line when that run has the item's
        width, and opens a new run otherwise; a call with no fields is a
        plain action.  The one place a run is laid out (see ``_Fifo``)."""
        append = fifo.append
        run_fn = width = extend = None  # the run that ends the line
        if fifo and fifo[-2] is _RUN:
            run = fifo[-1]
            run_fn, width, extend = run[0], run[1], run.extend
        for fn, item in calls:
            if fn is run_fn and len(item) == width:
                extend(item)
            elif not item:
                append(fn)
                append(item)
                run_fn = None
            else:
                run = [fn, len(item), *item]
                append(_RUN)
                append(run)
                run_fn, width, extend = fn, len(item), run.extend

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
        """Execute a run's items in order.  The run left the line when it
        started, so nothing joins it now; if an item raises, the unrun
        tail goes back to the head of the instant before the re-raise."""
        fn = run[0]
        width = run[1]
        if len(run) == 2 + width:  # one item: no tail to put back
            fn(*run[2:])
            return
        items = islice(run, 2, None)
        try:
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
