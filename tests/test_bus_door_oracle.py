"""The bus's one door, in lockstep with the per-message dispatch it replaced.

Every publish — ``publish``, ``publish_subject`` and ``publish_reports``,
on an ``EventBus`` and on the sharded facade — is one call into
``repro.bus.bus.queue_messages``, which queues a call's deliveries per
stretch of equal delays.  The dispatch it replaced
(``reference.per_message_dispatch``, kept verbatim) scheduled each
delivery on its own as the message was routed.  Each case builds the
same bus twice from one seed — one publishing through the door, one
through the reference (installed by ``reference.per_message_buses``) —
plays the same seeded traffic on both and steps the two kernels in
lockstep.  After every step the two must agree on:

* every instant's line: the same actions and runs, their items in the
  same order, with the same fields;
* every delivery so far (time, subscriber, message) and every publish
  call's outcome (its returned match count, or the ``ValueError`` of a
  malformed subject with ``published`` unchanged);
* every child bus's ``published``, ``delivered``, ``dead_letters_by_sid``
  and ``total_transit`` (by ``float.hex``).

The traffic mixes the three methods at the same instants, batches of
reports with a malformed subject in the middle, a handler that
publishes, and an unsubscribe while deliveries to it are in flight.
The cases cover one bus, a one-child and a two-child facade, a
seeded fault injector, a ``FixedDelay`` (and a negative one), and a
``CallableDelay`` that draws zero and negative delays off a seeded
stream, so the two runs must also ask it in the same order.
"""

import random

import pytest
from reference import per_message_buses

from repro.bus.bus import CallableDelay, EventBus, FixedDelay, Subscription, _deliver
from repro.bus.messages import Message
from repro.bus.sharding import ShardedEventBus
from repro.sim import Simulator
from repro.sim.kernel import _RUN

INSTANTS = (0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0)  # repeats: same-instant calls
TARGETS = [f"T{k}" for k in range(4)] + ["U0"]  # U0: no shard owns it
KINDS = ("latency", "load")
DELAYS = (0.0, -0.5, 0.25, 0.5, 1.0)


def _delivery(kind, seed):
    if kind == "callable":
        draw = random.Random(seed + 1).choice
        return CallableDelay(lambda message: draw(DELAYS))
    return FixedDelay({"fixed": 0.25, "negative": -1.0}[kind])


def _shard_of(name):
    return int(name[1:]) if name.startswith("T") else None


def _subject(rng):
    return f"{rng.choice(('probe', 'gauge'))}.{rng.choice(KINDS)}.{rng.choice(TARGETS)}"


class Plane:
    """One seeded bus and its traffic; everything it logs is canonical."""

    def __init__(self, delivery, shards, faults, seed):
        rng = random.Random(seed)
        self.sim = sim = Simulator()
        model = _delivery(delivery, seed)
        if shards:
            self.bus = ShardedEventBus(sim, shards, _shard_of, model, name="bus")
            self.buses = [self.bus.shard(k) for k in range(shards)]
        else:
            self.bus = EventBus(sim, model, name="bus")
            self.buses = [self.bus]
        if faults:
            drop = random.Random(seed + 2).random
            self.bus.fault_injector = lambda sub, msg: drop() < 0.3
        self.log = []
        self.in_flight = 0  # the victim's deliveries pending when it left
        for pattern in ("probe.>", "probe.latency.*", "gauge.load.T2", "*.*.U0"):
            self.bus.subscribe(pattern, self._logger(pattern))
        self.victim = self.bus.subscribe("gauge.>", self._logger("victim"))
        self.bus.subscribe("gauge.latency.*", self._echo)
        for _ in range(60):
            at = rng.choice(INSTANTS)
            how = rng.choice(("publish", "publish_subject", "publish_reports"))
            if how == "publish":
                args = (_subject(rng), rng.random())
            elif how == "publish_subject":
                subject = _subject(rng) if rng.random() > 0.1 else "probe..T1"
                args = (subject, rng.random())
            else:
                subjects = [_subject(rng) for _ in range(rng.choice((1, 3, 6)))]
                if rng.random() < 0.15:
                    subjects.insert(len(subjects) // 2, "gauge.latency.")
                args = [[(s, rng.random()) for s in subjects]]
            sim.schedule_at(at, getattr(self, how), *args)
        sim.schedule_at(1.0, self.quit)  # after the publishes at 1.0

    # -- traffic -----------------------------------------------------------
    def _call(self, name, door, *args, **kwargs):
        before = self.bus.published
        try:
            outcome = door(*args, **kwargs)
        except ValueError as error:  # with what was published before it
            outcome = ("ValueError", str(error), self.bus.published - before)
        self.log.append((self.sim.now, name, outcome))

    def publish(self, subject, value):
        message = Message(subject, {"value": value}, -1.0, "caller")
        self._call("publish", self.bus.publish, message)
        message.attributes["late"] = True  # the bus delivers its own copy

    def publish_subject(self, subject, value):
        self._call(
            "publish_subject", self.bus.publish_subject, subject, "s", value=value
        )

    def publish_reports(self, reports):
        fields = []
        for subject, value in reports:
            fields += (subject, {"target": subject[-2:], "value": value}, subject)
        self._call("publish_reports", self.bus.publish_reports, fields)

    # -- subscribers -------------------------------------------------------
    def _logger(self, name):
        def log(message):
            self.log.append((self.sim.now, name, _canon_message(message)))

        return log

    def quit(self):
        """Unsubscribe the victim with its deliveries on their way."""
        parts = getattr(self.victim, "parts", [self.victim])  # a fan-out's
        self.in_flight = sum(
            any(sub is part for part in parts)
            for fifo in self.sim._agenda.values()
            for run in list(fifo)[1::2]
            if isinstance(run, list) and run[0] is _deliver
            for sub in run[3::4]
        )
        self.bus.unsubscribe(self.victim)

    def _echo(self, message):
        self.log.append((self.sim.now, "echo", _canon_message(message)))
        if message.sender != "echo":
            subject = message.subject.replace("gauge", "probe", 1)
            self._call(
                "echo", self.bus.publish_subject, subject, "echo", value=message.time
            )

    # -- observation -------------------------------------------------------
    def step(self):
        return self.sim.step(), self.sim.now

    def state(self):
        counters = [
            (
                b.published,
                b.delivered,
                sorted(b.dead_letters_by_sid.items()),
                float.hex(b.total_transit),
            )
            for b in self.buses
        ]
        return counters, self.in_flight, len(self.log), self.log[-3:]

    def lines(self):
        """Every instant's line, canonical."""
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
                line.append(head + tuple(_canon(value) for value in args))
            out.append((time, line))
        return out


def _canon_message(m):
    return (m.subject, tuple(sorted(m.attributes.items())), m.time, m.sender)


def _canon_fn(fn):
    if fn is _deliver:
        return "deliver"
    return getattr(fn, "__name__", repr(fn))


def _canon(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Message):
        return _canon_message(value)
    if isinstance(value, Subscription):
        return ("sub", value.sid, value.pattern)
    if isinstance(value, (EventBus, ShardedEventBus)):
        return ("bus", value.name)
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _canon(v)) for k, v in value.items()))
    raise TypeError(value)


CASES = [
    ("fixed", 0, False),
    ("fixed", 1, True),
    ("fixed", 2, True),
    ("negative", 2, False),
    ("callable", 0, False),
    ("callable", 0, True),
    ("callable", 1, True),
    ("callable", 2, True),
]


@pytest.mark.parametrize("delivery, shards, faults", CASES)
@pytest.mark.parametrize("seed", [5, 17])
def test_the_door_queues_what_the_per_message_dispatch_did(
    delivery, shards, faults, seed
):
    with per_message_buses():
        ref = Plane(delivery, shards, faults, seed)
    door = Plane(delivery, shards, faults, seed)
    steps = 0
    while True:
        with per_message_buses():
            expected = ref.step()
        got = door.step()
        assert got == expected, steps
        if got[0] is False:
            break
        assert door.lines() == ref.lines(), (steps, got)
        assert door.state() == ref.state(), steps
        steps += 1
    assert door.log == ref.log
    if shards:
        assert door.bus.dead_letters_by_sid == ref.bus.dead_letters_by_sid
    # the lockstep saw what it is for
    calls = [entry for entry in door.log if entry[1] in ("publish_subject", "publish")]
    reports = [entry for entry in door.log if entry[1] == "publish_reports"]
    assert any(isinstance(e[2], int) and e[2] > 1 for e in calls + reports)
    outcomes = [entry for entry in door.log if isinstance(entry[2], tuple)]
    refused = [entry for entry in outcomes if entry[2][0] == "ValueError"]
    assert refused
    assert all(e[2][2] == 0 for e in refused if e[1] == "publish_subject")
    assert door.in_flight > 0 and not door.victim.active
    assert sum(bus.delivered for bus in door.buses) > 100
    if faults:
        assert sum(bus.dead_letters for bus in door.buses) > 0
    if shards == 2:
        assert all(bus.published for bus in door.buses)
