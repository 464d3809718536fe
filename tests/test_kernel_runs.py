"""Kernel runs at the edges the telemetry path puts them through.

A bus delivery and a gauge tick are items of a kernel run
(``Simulator.schedule_items``, the kernel's one run door): the items
due at one instant, back to back, execute as one action.  Order is
pinned by ``tests/test_kernel_order_oracle.py``; these are the cases
where an item changes what a later item of the *same* run must do, the
door's two shapes (many items in one call, or one call per item) and
its refusals, and a function that takes its run whole
(``takes_whole_runs``), with the tail rule when it raises.
"""

import pytest

from repro.bus.bus import EventBus, FixedDelay
from repro.bus.sharding import ShardedEventBus
from repro.errors import SimulationError
from repro.monitoring.gauges import LatestValueGauge
from repro.sim import Simulator
from repro.sim.kernel import takes_whole_runs

DELAY = 0.25


def actions_at(sim, time):
    """How many actions the instant ``time`` holds (a run is one)."""
    return len(sim._agenda.get(time, ())) // 2


def test_a_subscription_cancelled_earlier_in_the_run_receives_nothing():
    sim = Simulator()
    bus = EventBus(sim, delivery=FixedDelay(DELAY))
    got = []
    victim = None

    def first(message):
        got.append(("first", message.subject))
        bus.unsubscribe(victim)

    bus.subscribe("probe.x.T0", first)
    victim = bus.subscribe("probe.x.T0", lambda m: got.append(("victim", m.subject)))
    bus.publish_subject("probe.x.T0", value=1.0)
    assert actions_at(sim, DELAY) == 1  # both deliveries: one run
    sim.run()
    assert got == [("first", "probe.x.T0")]
    assert (bus.published, bus.delivered) == (1, 1)


def test_a_gauge_disposed_earlier_in_the_run_does_not_report():
    sim = Simulator()
    probe_bus = EventBus(sim, delivery=FixedDelay(DELAY))
    gauge_bus = EventBus(sim, delivery=FixedDelay(DELAY))
    first, victim = (
        LatestValueGauge(sim, probe_bus, gauge_bus, "latency", target, period=1.0)
        for target in ("T0", "T1")
    )
    first._last = victim._last = 2.0
    first.activate()
    victim.activate()
    sim.run(until=0.5)
    assert actions_at(sim, 1.0) == 1  # both ticks: one run

    def value_and_dispose():
        victim.dispose()
        return 1.0

    first._value = value_and_dispose
    reports = []
    gauge_bus.subscribe("gauge.>", reports.append)
    sim.run(until=3.5)
    assert [(m.subject, m["value"]) for m in reports] == [
        ("gauge.latency.T0", 1.0)
    ] * 3
    assert (first.reports, victim.reports) == (3, 0)


def test_a_sharded_bus_alternating_publishes_form_one_run_per_instant():
    sim = Simulator()
    bus = ShardedEventBus(
        sim, 4, lambda name: int(name[1:]), delivery=FixedDelay(DELAY)
    )
    got = []
    bus.subscribe("probe.x.*", got.append)  # a part on every child bus
    for rnd in range(3):
        for pool in range(8):  # children 0, 1, 2, 3, 0, 1, ...
            bus.publish_subject(f"probe.x.T{pool}", value=float(rnd))
        assert actions_at(sim, sim.now + DELAY) == 1
        assert sim.step() and sim.peek() is None  # one step delivers all 8
        assert [m.subject for m in got[-8:]] == [f"probe.x.T{p}" for p in range(8)]
    assert [shard.published for shard in bus._buses] == [6, 6, 6, 6]
    assert [shard.delivered for shard in bus._buses] == [6, 6, 6, 6]


class Boom(Exception):
    pass


def test_a_whole_run_is_one_call_over_every_items_fields():
    sim = Simulator()
    calls = []

    @takes_whole_runs
    def whole(fields):
        calls.append(list(zip(fields, fields)))

    for i in range(3):
        sim.schedule_items(1.0, whole, 2, (i, f"x{i}"))
    assert actions_at(sim, 1.0) == 1
    assert sim.step() and sim.peek() is None
    assert calls == [[(0, "x0"), (1, "x1"), (2, "x2")]]


def test_a_whole_run_that_raises_puts_back_what_it_did_not_take():
    sim = Simulator()
    seen = []

    @takes_whole_runs
    def whole(fields):
        for i, tag in zip(fields, fields):
            if tag == "boom":
                raise Boom(i)
            seen.append(i)

    for i in range(5):
        sim.schedule_items(1.0, whole, 2, (i, "boom" if i in (1, 3) else "ok"))
    sim.schedule(1.0, seen.append, "after")
    with pytest.raises(Boom, match="1"):
        sim.step()
    assert seen == [0]
    # items 2..4 wait at the head of the instant, before the plain action
    assert sim._agenda[1.0][1] == [whole, 2, 2, "ok", 3, "boom", 4, "ok"]
    with pytest.raises(Boom, match="3"):
        sim.step()
    sim.run()
    assert seen == [0, 2, 4, "after"]


def test_a_whole_run_that_raises_before_taking_anything_is_put_back_whole():
    sim = Simulator()
    taken = []

    @takes_whole_runs
    def whole(fields):
        if not taken:
            taken.append(None)
            raise Boom()
        taken.append(list(fields))

    sim.schedule_items(1.0, whole, 1, ["a"])
    sim.schedule_items(1.0, whole, 1, ["b"])
    with pytest.raises(Boom):
        sim.step()
    assert sim.step() and taken == [None, ["a", "b"]]


def line(sim):
    return {time: list(fifo) for time, fifo in sim._agenda.items()}


def test_schedule_items_queues_what_one_call_per_item_would():
    def fn(*item):
        pass

    def other(*item):
        pass

    programs = [
        [(fn, (1, 2)), (fn, (3, 4))],  # opens a run, then joins it
        [(other, ("x",)), (fn, (5, 6)), (fn, (7, 8))],  # opens after another run
        [(fn, ("w",))],  # same function, other width: a run of its own
        [(fn, (9, 10))],
    ]
    flat, per_item = Simulator(), Simulator()
    for sim in (flat, per_item):
        sim.schedule(1.0, print)  # a plain action first
    for program in programs:
        for fn_, item in program:
            per_item.schedule_items(1.0, fn_, len(item), item)
        # the flat form: one call per stretch of one function and width
        stretch = []
        for k, (fn_, item) in enumerate(program):
            stretch.extend(item)
            last = k + 1 == len(program)
            if last or program[k + 1][0] is not fn_:
                flat.schedule_items(1.0, fn_, len(item), stretch)
                stretch = []
        assert line(flat) == line(per_item)
    assert len(flat._agenda[1.0]) // 2 == 6  # print, fn, other, fn, fn(w), fn


def test_schedule_items_refuses_the_past_and_partial_items():
    sim = Simulator()
    for delay in (-1.0, float("nan")):
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_items(delay, print, 1, ["x"])
    # an empty item (width 0), however it is spelled, and a partial one
    for width, fields in ((2, [1, 2, 3]), (0, []), (0, ["x"]), (-1, [])):
        with pytest.raises(TypeError):
            sim.schedule_items(1.0, print, width, fields)
    assert sim.peek() is None
