"""The ``(time, seq)`` event heap ``Simulator`` replaced, and the pacing
contract ``RealtimeScheduler`` keeps over it.

``Simulator`` keeps a heap of distinct instants, one FIFO per instant,
and *runs*: same-instant items of one function stored flat in one
action.  The order it must keep is the heap's — actions run in
``(time, scheduling order)`` — so the oracle is that heap, plus a
statement of which items form one run (what one ``step()`` executes):

* ``schedule_run(delay, fn, *item)`` is one heap entry per item, like
  ``schedule`` (``schedule_items`` is one ``schedule_run`` per item of
  its flat field list: the kernel's one run door, stated per item); the
  item joins the run of the entry scheduled last at
  its instant when that entry is a run item of the same ``fn`` and
  width whose run has not started;
* a step pops an entry and, for a run item, every entry of the same run
  behind it — they are adjacent: nothing else joined their instant
  between them;
* an item that raises ends the step; the run's remaining entries are a
  run that has not started again.
"""

from __future__ import annotations

import heapq

__all__ = ["HeapKernel", "PacedHeapKernel"]


class _Run:
    """The identity the items of one run share."""

    __slots__ = ("fn", "width", "open")

    def __init__(self, fn, width):
        self.fn = fn
        self.width = width
        self.open = True  # queued and not started: an item may join


class HeapKernel:
    """The ``(time, seq)`` event heap: the order oracle.

    ``runs`` counts the runs made, ``joined`` the items that joined one
    and ``reopened`` the runs a raise left with items to resume, so a
    test can tell its programs exercised all three.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap = []
        #: instant -> the entry scheduled there last
        self._last = {}
        self.runs = 0
        self.joined = 0
        self.reopened = 0

    def schedule(self, delay, fn, *args):
        self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        self._push(float(time), fn, args, None)

    def schedule_run(self, delay, fn, *item):
        self.schedule_run_at(self.now + delay, fn, *item)

    def schedule_items(self, delay, fn, width, fields):
        for at in range(0, len(fields), width):
            self.schedule_run(delay, fn, *fields[at : at + width])

    def schedule_run_at(self, time, fn, *item):
        time = float(time)
        last = self._last.get(time)
        run = last[4] if last is not None else None
        if run is not None and run.open and run.fn is fn and run.width == len(item):
            self.joined += 1
        else:
            run = _Run(fn, len(item))
            self.runs += 1
        self._push(time, fn, item, run)

    def _push(self, time, fn, args, run):
        self._seq += 1
        entry = (time, self._seq, fn, args, run)
        heapq.heappush(self._heap, entry)
        self._last[time] = entry

    def step(self):
        heap = self._heap
        if not heap:
            return False
        self.now, _, fn, args, run = heapq.heappop(heap)
        if run is None:
            fn(*args)
            return True
        run.open = False
        while True:
            try:
                fn(*args)
            except BaseException:
                run.open = bool(heap) and heap[0][4] is run
                self.reopened += run.open
                raise
            if not heap or heap[0][4] is not run:
                return True
            _, _, fn, args, _ = heapq.heappop(heap)

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def run(self, until=None):
        while self._heap and (until is None or self._heap[0][0] <= until):
            self.step()
        if until is not None:
            self.now = float(until)


class PacedHeapKernel(HeapKernel):
    """The pacing contract over the oracle heap.

    Between two instants: take what was injected, stamped at the clock.
    A drain's calls are scheduled in injection order as ``schedule_run``
    would at the arrival instant — consecutive calls of one function and
    item width join one run — and zero-argument calls as plain actions.
    Then wait for the head and run the actions sharing its time, looking
    for ``stop()`` after each one (a run is one); after the instant's
    last action, sample the lag.  A raise leaves ``run`` at once.
    """

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self.injected = []
        self.stopped = False
        self.executed = 0
        self.max_lag = 0.0
        #: injected calls that joined a run
        self.injected_joined = 0

    def call_soon_threadsafe(self, fn, *args):
        self.injected.append((fn, args))

    def stop(self):
        self.stopped = True

    def run(self, until):
        clock = self.clock
        while not self.stopped:
            if self.injected:
                arrival = max(self.now, clock.elapsed())
                pending, self.injected = self.injected, []
                joined = self.joined
                for fn, args in pending:
                    if args:
                        self.schedule_run_at(arrival, fn, *args)
                    else:
                        self.schedule_at(arrival, fn)
                self.injected_joined += self.joined - joined
                continue
            due = self.peek()
            if due is None or due > until:
                if clock.elapsed() >= until:
                    break
                clock.wait(until - clock.elapsed(), None)
                continue
            if due > clock.elapsed():
                clock.wait(due - clock.elapsed(), None)
                continue
            while True:
                self.step()
                self.executed += 1
                if self.stopped or self.peek() != due:
                    break
            self.max_lag = max(self.max_lag, clock.elapsed() - self.now)
        if not self.stopped:
            self.now = float(until)
