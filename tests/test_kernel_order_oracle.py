"""The kernel's order, checked against the heap it replaced.

``Simulator`` keeps a heap of distinct instants, one FIFO per instant,
and runs of same-instant items of one function.  The contract it must
keep is the old one — actions run in ``(time, scheduling order)`` — so
the oracle is the old kernel itself, ``reference.HeapKernel``: a
``(time, seq)`` heap plus the rule for which items one ``step()``
executes.  Seeded random programs are run on both, with ``schedule_items``
bursts (one call for a burst's items; the heap takes them one entry per
item) interleaved with plain ``schedule`` / ``schedule_at`` on the same
instants and one action that raises — often an item in the middle of a
run, which must resume where it stopped; the ``(now, label)`` logs and
every ``peek()`` answer must be identical.

The same programs then run on ``RealtimeScheduler(FakeClock())`` with a
share of the actions entering through ``call_soon_threadsafe``, against
``reference.PacedHeapKernel``: the same heap under a loop that states
the pacing contract (take injections in between instants, stamp them at
the clock, check for ``stop()`` between actions, sample the lag after
an instant).

All times are multiples of 1/8, so every sum below is exact and the
float comparisons are equalities.
"""

import itertools
import random
from collections import Counter
from functools import partial

import pytest
from reference import HeapKernel, PacedHeapKernel

from repro.errors import SimulationError
from repro.realtime import FakeClock, RealtimeScheduler
from repro.sim import Simulator

#: few distinct delays, so most actions tie with others; 0 is a cascade
DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0)
#: run items carry (label, depth) plus one of these: widths 2, 3 and 4
PADS = ((), (None,), (None, None))
SEEDS_PER_BLOCK = 32
BLOCKS = 8  # 256 programs per plane


class Boom(Exception):
    pass


class Program:
    """One seeded scheduling program, run against one kernel.

    Every random draw is made in execution order from the program's own
    generator, so two kernels that order actions alike see the same
    program, and the first disagreement shows in the logs.
    """

    MAX_ACTIONS = 250
    MAX_DEPTH = 4

    def __init__(self, kernel, seed, inject_share=0.0, clock=None, raises=True):
        self.k = kernel
        self.rng = random.Random(seed)
        self.inject_share = inject_share
        self.clock = clock
        self.labels = itertools.count()
        self.scheduled = 0
        self.log = []
        self.peeks = []
        self.lags = []
        # drawn for every program so the draws that follow line up
        self.bomb = self.rng.randrange(3, 30) if raises else None
        self.stopper = self.rng.randrange(20, 60)
        #: two run functions: each ``self.act`` is a bound method of its own
        self.runners = (self.act, self.act)
        #: how often each shape the docstring promises actually occurred
        self.seen = Counter()

    # -- scheduling --------------------------------------------------------
    def spawn(self, depth):
        if self.scheduled >= self.MAX_ACTIONS:
            return
        self.scheduled += 1
        label = next(self.labels)
        delay = self.rng.choice(DELAYS)
        route = self.rng.random()
        if route < self.inject_share:
            self.seen["injected"] += 1
            self.seen["injected from a callback"] += depth > 0
            how = self.rng.random()
            if how < 0.5:  # one function for all: a drain's calls join a run
                self.k.call_soon_threadsafe(Program.act, self, label, depth)
            elif how < 0.75:  # a new bound method each time: never joins
                self.k.call_soon_threadsafe(self.act, label, depth)
            else:  # no fields: a plain action
                self.seen["injected with no fields"] += 1
                self.k.call_soon_threadsafe(partial(self.act, label, depth))
        elif route < self.inject_share + 0.2:
            self.seen["schedule_at(now)"] += delay == 0.0
            self.k.schedule_at(self.k.now + delay, self.act, label, depth)
        elif route < self.inject_share + 0.55:
            # a burst, as a publish fanning out to its subscribers
            fn = self.rng.choice(self.runners)
            pad = self.rng.choice(PADS)
            fields = [label, depth, *pad]
            for _ in range(self.rng.choice((0, 1, 3))):
                if self.scheduled < self.MAX_ACTIONS:
                    self.scheduled += 1
                    fields += (next(self.labels), depth, *pad)
            self.k.schedule_items(delay, fn, 2 + len(pad), fields)
        else:
            self.seen["delay-0 from a callback"] += delay == 0.0 and depth > 0
            # a run function scheduled plainly is a plain action
            fn = self.rng.choice((self.act,) + self.runners)
            self.k.schedule(delay, fn, label, depth)

    def act(self, label, depth, *pad):
        self.log.append((self.k.now, label))
        if label == self.bomb:
            raise Boom(label)
        if self.clock is not None:
            if self.rng.random() < 0.3:  # the action takes wall time
                self.clock.advance(self.rng.choice((0.125, 0.25)))
            if label == self.stopper:
                self.k.stop()
                self.seen["stop() mid-instant"] += self.k.peek() == self.k.now
        if depth < self.MAX_DEPTH:
            for _ in range(self.rng.choice((0, 0, 1, 1, 2, 3))):
                self.spawn(depth + 1)
        if self.clock is not None:
            self.lags.append(self.clock.elapsed() - self.k.now)

    # -- drivers -----------------------------------------------------------
    def _guard(self, call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except Boom:
            self.seen["raised"] += 1
            return True

    def drive_sim(self):
        """Interleave step / peek / run(until) / outside scheduling."""
        k, rng = self.k, self.rng
        for _ in range(rng.randint(4, 12)):
            self.spawn(0)
        for _ in range(400):
            op = rng.random()
            if op < 0.35:
                if not self._guard(k.step) and self.scheduled >= self.MAX_ACTIONS:
                    break
            elif op < 0.55:
                self.peeks.append(k.peek())
            elif op < 0.75:
                ahead = rng.choice((0.0, 0.0, 0.25, 1.0))
                self.seen["run(until == now)"] += ahead == 0.0
                self._guard(k.run, until=k.now + ahead)
            elif op < 0.85:
                # the kernel forgot this instant if it ran its last action
                self.seen["exhausted instant re-opened"] += k.peek() != k.now
                self.scheduled += 1
                k.schedule(0.0, self.act, next(self.labels), self.MAX_DEPTH)
            else:
                self.spawn(0)
            self.peeks.append(k.peek())
        while k.peek() is not None:  # a Boom ends run(); the rest must still go
            self._guard(k.run)

    def drive_realtime(self):
        """run(until) in slices, scheduling and injecting in between."""
        k, rng = self.k, self.rng
        for _ in range(rng.randint(4, 12)):
            self.spawn(0)
        horizon = 0.0
        while not k.stopped and horizon < 40.0:
            horizon = max(horizon, k.now) + rng.choice((0.25, 0.5, 1.0, 2.0))
            self._guard(k.run, until=horizon)  # a Boom ends run() at its instant
            self.peeks.append(k.peek())
            for _ in range(rng.choice((0, 1, 2))):
                self.spawn(0)


def _runs_seen(seen, kernel):
    """Count the run shapes the reference saw (the logs being equal)."""
    seen["runs"] += kernel.runs
    seen["joined a run"] += kernel.joined
    seen["run resumed after a raise"] += kernel.reopened


def _seeds(block):
    return range(block * SEEDS_PER_BLOCK, (block + 1) * SEEDS_PER_BLOCK)


@pytest.mark.parametrize("block", range(BLOCKS))
def test_simulator_orders_like_the_time_seq_heap(block):
    seen = Counter()
    for seed in _seeds(block):
        real = Program(Simulator(), seed)
        real.drive_sim()
        want = Program(HeapKernel(), seed)
        want.drive_sim()
        assert real.log == want.log, f"seed {seed}"
        assert real.peeks == want.peeks, f"seed {seed}"
        assert real.k.now == want.k.now, f"seed {seed}"
        # the raising action cost nobody else their turn
        ran = sorted(label for _, label in real.log)
        assert ran == list(range(real.scheduled)), f"seed {seed}"
        assert real.k._agenda == {} and real.k._times == [], f"seed {seed}"
        seen += real.seen
        _runs_seen(seen, want.k)
        times = [time for time, _ in real.log]
        seen["ties"] += len(times) - len(set(times))
    # the programs are what the docstring says they are
    assert seen["ties"] > 20 * SEEDS_PER_BLOCK
    for shape in (
        "delay-0 from a callback",
        "schedule_at(now)",
        "run(until == now)",
        "exhausted instant re-opened",
        "runs",
        "joined a run",
    ):
        assert seen[shape] > SEEDS_PER_BLOCK, shape
    assert seen["raised"] > SEEDS_PER_BLOCK // 2
    assert seen["run resumed after a raise"] >= 2


@pytest.mark.parametrize("block", range(BLOCKS))
def test_realtime_scheduler_paces_like_the_contract_loop(block):
    seen = Counter()
    for seed in _seeds(block):
        raises = seed % 2 == 1
        runs = []
        for kernel in (RealtimeScheduler, PacedHeapKernel):
            clock = FakeClock()
            program = Program(
                kernel(clock), seed, inject_share=0.3, clock=clock, raises=raises
            )
            program.drive_realtime()
            runs.append(program)
        real, want = runs
        assert real.log == want.log, f"seed {seed}"
        assert real.peeks == want.peeks, f"seed {seed}"
        assert real.k.now == want.k.now, f"seed {seed}"
        assert real.k.executed == want.k.executed <= len(real.log), f"seed {seed}"
        assert real.k.max_lag == want.k.max_lag, f"seed {seed}"
        if not real.seen["raised"]:
            # one lag sample per instant loses nothing against one per
            # action; an instant a raise cut short is not sampled at all
            assert real.k.max_lag == max(real.lags), f"seed {seed}"
        seen += real.seen
        _runs_seen(seen, want.k)
        seen["an injection joined a run"] += want.k.injected_joined
        seen["lagged"] += real.k.max_lag > 0
    assert seen["injected"] > 5 * SEEDS_PER_BLOCK
    assert seen["an injection joined a run"] > SEEDS_PER_BLOCK
    assert seen["injected with no fields"] > SEEDS_PER_BLOCK
    assert seen["injected from a callback"] > SEEDS_PER_BLOCK
    assert seen["stop() mid-instant"] >= 2
    assert seen["lagged"] > SEEDS_PER_BLOCK // 2
    assert seen["joined a run"] > SEEDS_PER_BLOCK
    assert seen["raised"] > SEEDS_PER_BLOCK // 4
    assert seen["run resumed after a raise"] >= 1


class TestAgendaShape:
    """Count-based: what the agenda holds, not how long anything takes."""

    def test_same_instant_schedules_share_one_heap_entry(self):
        sim = Simulator()
        seen = []
        for i in range(2000):
            sim.schedule(1.0, seen.append, i)
        assert len(sim._times) == 1 and len(sim._agenda) == 1
        assert sim.peek() == 1.0
        sim.run()
        assert seen == list(range(2000))
        assert sim._times == [] and sim._agenda == {}

    def test_same_instant_run_items_are_one_action_stored_flat(self):
        sim = Simulator()
        seen = []

        def note(i, tag):
            seen.append((i, tag))

        for i in range(2000):
            sim.schedule_items(1.0, note, 2, (i, "x"))
        [fifo] = sim._agenda.values()
        assert len(fifo) == 2  # one action: the marker, then one flat list
        assert len(fifo[1]) == 2 + 2 * 2000
        assert sim.step() and sim.peek() is None
        assert seen == [(i, "x") for i in range(2000)]

    def test_a_run_item_needs_a_field(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.schedule_items(0.0, print, 0, ())
        assert sim.peek() is None

    def test_a_service_retains_nothing_for_the_instants_it_passed(self):
        sched = RealtimeScheduler(FakeClock())
        live = [True]
        ticks = [0]

        def tick(period):
            ticks[0] += 1
            if live[0]:
                sched.schedule(period, tick, period)

        for period in (0.25, 0.5, 1.0):
            for _ in range(50):
                sched.schedule(period, tick, period)
        sched.run(until=500.0)
        # 150 tickers, three period classes: at most three pending instants
        assert len(sched._agenda) <= 3 and len(sched._times) == len(sched._agenda)
        assert all(sched._agenda.values())  # no exhausted line left behind
        live[0] = False
        sched.run(until=502.0)
        assert sched._times == [] and sched._agenda == {}
        assert sched.executed == ticks[0] > 150 * 500

    def test_injections_of_one_drain_join_one_instant(self):
        clock = FakeClock(3.0)
        sched = RealtimeScheduler(clock)
        seen = []
        for i in range(500):
            sched.call_soon_threadsafe(seen.append, i)
        sched.run(until=3.0)
        assert seen == list(range(500))
        # a bound method is a new object per access: no two calls join
        assert sched.executed == 500 and sched.max_lag == 0.0

    def test_injections_of_one_function_are_one_run(self):
        sched = RealtimeScheduler(FakeClock(3.0))
        seen = []

        def note(i):
            seen.append(i)

        for i in range(2000):
            sched.call_soon_threadsafe(note, i)
        sched.run(until=3.0)
        assert seen == list(range(2000))
        assert sched.executed == 1

    def test_a_raise_in_an_injected_run_leaves_its_tail_in_order(self):
        sched = RealtimeScheduler(FakeClock(3.0))
        seen = []

        def note(i):
            if i == 700 and 700 not in seen:
                seen.append(i)
                raise Boom(i)
            seen.append(i)

        for i in range(2000):
            sched.call_soon_threadsafe(note, i)
        with pytest.raises(Boom):
            sched.run(until=3.0)
        assert seen == list(range(701))
        [fifo] = sched._agenda.values()
        assert len(fifo) == 2  # the tail is one run at the head of 3.0
        assert fifo[1][2:] == list(range(701, 2000))
        sched.run(until=3.0)
        assert seen == list(range(2000))
        assert sched.executed == 1 and sched.peek() is None


class TestNanTimes:
    """NaN compares false with everything: ``nan < now`` let it through."""

    @pytest.mark.parametrize(
        "make",
        [Simulator, lambda: RealtimeScheduler(FakeClock())],
        ids=["sim", "realtime"],
    )
    def test_nan_is_rejected_and_inf_is_legal(self, make):
        sim = make()
        nan = float("nan")
        with pytest.raises(SimulationError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(nan, lambda: None)
        assert sim.peek() is None
        with pytest.raises(SimulationError):
            sim.schedule_items(nan, print, 1, ["item"])
        assert sim.peek() is None
        sim.schedule(float("inf"), lambda: None)
        sim.schedule_at(float("inf"), lambda: None)
        sim.schedule_items(float("inf"), print, 1, ["item"])
        assert sim.peek() == float("inf")

    def test_run_until_nan_is_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert sim.now == 0.0
