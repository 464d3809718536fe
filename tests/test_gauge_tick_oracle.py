"""The whole-run gauge tick, in lockstep with the per-item tick it replaced.

``Gauge._tick`` takes the instant's run of due gauges whole: it reads
every value in item order, hands the reports to the gauge bus in one
``publish_reports`` call and queues the re-arms in one
``schedule_items`` call.  The per-item tick it replaced
(``reference.per_item_tick``, kept verbatim) published each report with
``publish_subject`` and re-armed with a one-item ``schedule_items``.
Each case builds the same plane twice from one seed — one ticking whole runs, one
per item — and steps the two kernels in lockstep.  After every step the
two must agree on:

* every instant's line: the same actions and runs, their items in the
  same order, with the same fields;
* every delivery so far (time, subscriber, message), every bus counter
  (``published``, ``delivered``, dead letters, ``total_transit`` to the
  bit) and every gauge's ``reports``.

The planes mix gauge classes, periods (0.5, 1 and 2 s) and phases, and
a script activates, deactivates and disposes gauges mid-run, one gauge's
``_value`` raises once, and one subscriber cancels itself.  The cases
cover one bus, a one-child and a two-child sharded facade, a
``FixedDelay`` of 50 ms, of 0 and of exactly one period, a
``CallableDelay`` drawing from those delays (and the period of the
other gauges) off a seeded stream — so the two runs must also ask it in
the same order — and a seeded fault injector.
"""

import random

import pytest
from reference import per_item_tick, per_item_ticks

from repro.bus.bus import CallableDelay, EventBus, FixedDelay, Subscription, _deliver
from repro.bus.messages import Message
from repro.bus.sharding import ShardedEventBus
from repro.monitoring.gauges import (
    EwmaGauge,
    Gauge,
    LatestValueGauge,
    WindowedMeanGauge,
)
from repro.sim import Simulator
from repro.sim.kernel import _RUN

HORIZON = 10.0
PERIODS = (0.5, 1.0, 2.0)
PHASES = (0.0, 0.0, 0.25, 0.37)
TARGETS = [f"T{k}" for k in range(6)] + ["U0"]  # U0: no shard owns it
KINDS = ("latency", "load")


class Boom(Exception):
    pass


class Faulty(LatestValueGauge):
    """Raises on its third value read, then reads as usual."""

    reads = 0

    def _value(self):
        self.reads += 1
        if self.reads == 3:
            raise Boom(self.name)
        return super()._value()


def _delivery(kind, seed):
    if kind == "callable":
        draw = random.Random(seed + 1).choice
        return CallableDelay(lambda message: draw((0.0, 0.05, 0.5, 1.0, 2.0)))
    return FixedDelay({"fixed": 0.05, "zero": 0.0, "period": 1.0}[kind])


def _shard_of(name):
    return int(name[1:]) if name.startswith("T") else None


class Plane:
    """One seeded plane; everything it logs is canonical (no object ids)."""

    def __init__(self, delivery, shards, faults, seed):
        rng = random.Random(seed)
        self.sim = sim = Simulator()
        model = _delivery(delivery, seed)

        def make(name):
            if shards:
                return ShardedEventBus(sim, shards, _shard_of, model, name=name)
            return EventBus(sim, model, name=name)

        self.probe_bus, self.gauge_bus = make("probe-bus"), make("gauge-bus")
        self.buses = [self.gauge_bus]
        if shards:
            self.buses = [self.gauge_bus.shard(k) for k in range(shards)]
        if faults:
            drop = random.Random(seed + 2).random
            self.gauge_bus.fault_injector = lambda sub, msg: drop() < 0.3
        self.log = []
        self.gauge_bus.subscribe("gauge.>", self._logger("all"))
        self.gauge_bus.subscribe("gauge.latency.T1", self._logger("T1"))
        self.quitter = self.gauge_bus.subscribe("gauge.load.*", self._quitter)
        self.gauges = []
        for k, target in enumerate(TARGETS):
            for kind in KINDS:
                cls = rng.choice((WindowedMeanGauge, EwmaGauge, LatestValueGauge))
                if (k, kind) == (2, "load"):
                    cls = Faulty
                period = rng.choice(PERIODS)
                gauge = cls(
                    sim, self.probe_bus, self.gauge_bus, kind, target, period=period
                )
                self.gauges.append(gauge)
                sim.schedule_at(rng.choice(PHASES), gauge.activate)
        for _ in range(240):  # probe samples
            target, kind = rng.choice(TARGETS), rng.choice(KINDS)
            sim.schedule_at(
                round(rng.uniform(0.0, HORIZON), 2),
                self._sample,
                f"probe.{kind}.{target}",
                target,
                round(rng.uniform(0.0, 9.0), 3),
            )
        for _ in range(14):  # the script: the faulty gauge is left alone
            gauge = rng.choice([g for g in self.gauges if type(g) is not Faulty])
            action = rng.choice(("deactivate", "activate", "dispose", "keep"))
            at = rng.choice((2.0, 3.0, 4.0, 5.0, 6.5, 7.0))
            if action == "keep":
                sim.schedule_at(at, gauge.deactivate, False)
            else:
                sim.schedule_at(at, getattr(gauge, action))

    def _sample(self, subject, target, value):
        self.probe_bus.publish_subject(subject, target=target, value=value)

    def _logger(self, name):
        def log(message):
            self.log.append((self.sim.now, name, _canon_message(message)))

        return log

    def _quitter(self, message):
        self.log.append((self.sim.now, "quitter", _canon_message(message)))
        if sum(1 for entry in self.log if entry[1] == "quitter") == 5:
            self.gauge_bus.unsubscribe(self.quitter)

    def step(self):
        try:
            return self.sim.step(), self.sim.now
        except Boom as error:
            return ("boom", str(error)), self.sim.now

    def state(self, labels):
        counters = [
            (b.published, b.delivered, b.dead_letters, b.total_transit)
            for b in self.buses
        ]
        reports = [(g.name, g.reports, g.active) for g in self.gauges]
        return counters, reports, len(self.log), self.log[-3:]

    def lines(self, labels):
        """Every instant's line, canonical: ``labels`` names the objects
        with no name of their own (tick chains) in first-seen order."""
        out = []
        for time in sorted(self.sim._agenda):
            fifo = list(self.sim._agenda[time])
            line = []
            for fn, args in zip(fifo[::2], fifo[1::2]):
                if fn is _RUN:
                    head = ("run", _canon_fn(args[0]), args[1])
                    args = args[2:]
                else:
                    head = (_canon_fn(fn),)
                line.append(head + tuple(_canon(value, labels) for value in args))
            out.append((time, line))
        return out


def _canon_message(m):
    return (m.subject, tuple(sorted(m.attributes.items())), m.time, m.sender)


def _canon_fn(fn):
    if fn is Gauge._tick or fn is per_item_tick:
        return "tick"
    if fn is _deliver:
        return "deliver"
    self = getattr(fn, "__self__", None)
    if isinstance(self, Gauge):
        return (self.name, fn.__name__)
    if isinstance(self, (EventBus, ShardedEventBus)):
        return (self.name, fn.__name__)
    return getattr(fn, "__qualname__", repr(fn))


def _canon(value, labels):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Message):
        return _canon_message(value)
    if isinstance(value, Subscription):
        return ("sub", value.sid, value.pattern)
    if isinstance(value, (EventBus, ShardedEventBus)):
        return ("bus", value.name)
    if isinstance(value, Gauge):
        return ("gauge", value.name)
    key = id(value)
    if key not in labels:
        labels[key] = (value, len(labels))  # keep it alive: ids stay unique
    return ("object", labels[key][1])


def _coverage(lines):
    """(tick runs of several items, instants where a tick run and a
    delivery share the line) in one snapshot."""
    several = shared = 0
    for _, line in lines:
        kinds = {entry[1] for entry in line if entry[0] == "run"}
        several += sum(
            1 for e in line if e[0] == "run" and e[1] == "tick" and len(e) > 5
        )
        shared += {"tick", "deliver"} <= kinds
    return several, shared


CASES = [
    ("fixed", 0, False),
    ("fixed", 1, False),
    ("fixed", 2, False),
    ("zero", 1, False),
    ("period", 0, False),
    ("period", 2, False),
    ("callable", 0, False),
    ("callable", 2, False),
    ("fixed", 2, True),
    ("callable", 1, True),
]


@pytest.mark.parametrize("delivery, shards, faults", CASES)
@pytest.mark.parametrize("seed", [3, 11])
def test_whole_run_ticks_build_the_per_item_line(delivery, shards, faults, seed):
    with per_item_ticks():
        ref = Plane(delivery, shards, faults, seed)
    whole = Plane(delivery, shards, faults, seed)
    ref_labels, whole_labels = {}, {}
    steps = booms = several = shared = 0
    while True:
        with per_item_ticks():
            expected = ref.step()
        got = whole.step()
        assert got == expected, steps
        if got[0] is False or got[1] > HORIZON:
            break
        booms += isinstance(got[0], tuple)
        lines = whole.lines(whole_labels)
        assert lines == ref.lines(ref_labels), (steps, got)
        assert whole.state(whole_labels) == ref.state(ref_labels), steps
        s, h = _coverage(lines)
        several, shared = several + s, shared + h
        steps += 1
    assert whole.log == ref.log
    # the lockstep saw what it is for
    assert booms == 1 and several > 0 and len(whole.log) > 40
    if delivery in ("period", "callable"):
        assert shared > 0
    if faults:
        assert sum(bus.dead_letters for bus in whole.buses) > 0


def test_a_bus_that_raises_mid_stretch_rearms_it_and_repeats_nothing():
    # the per-item tick would have put the unrun tail back; the whole
    # run has read it, so the stretch is re-armed instead: every chain
    # keeps its grid, what was routed before the raise is delivered,
    # and nothing is published twice
    sim = Simulator()
    probe_bus, bus = EventBus(sim), EventBus(sim, FixedDelay(0.05))
    gauges = [
        LatestValueGauge(sim, probe_bus, bus, "latency", f"T{k}", period=1.0)
        for k in range(3)
    ]
    for gauge in gauges:
        gauge._last = 1.0
        gauge.activate()
    got = []
    bus.subscribe("gauge.>", lambda m: got.append((sim.now, m.subject)))

    def inject(sub, msg):
        if msg.subject == "gauge.latency.T1" and msg.time == 1.0:
            raise Boom()
        return False

    bus.fault_injector = inject
    with pytest.raises(Boom):
        sim.run(until=1.5)
    sim.run(until=2.5)
    assert got == [(1.05, "gauge.latency.T0")] + [
        (2.05, f"gauge.latency.T{k}") for k in range(3)
    ]
    assert bus.published == 2 + 3  # T1 was counted before its injector raised
    assert [gauge.reports for gauge in gauges] == [2, 2, 2]
