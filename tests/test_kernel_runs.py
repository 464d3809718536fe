"""Kernel runs at the edges the telemetry path puts them through.

An unbatched bus delivery and a gauge tick are items of a kernel run
(``Simulator.schedule_run``): the items due at one instant, back to
back, execute as one action.  Order is pinned by
``tests/test_kernel_order_oracle.py``; these are the cases where an
item changes what a later item of the *same* run must do.
"""

from repro.bus.bus import EventBus, FixedDelay
from repro.bus.sharding import ShardedEventBus
from repro.monitoring.gauges import LatestValueGauge
from repro.sim import Simulator

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
