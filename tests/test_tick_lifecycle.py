"""Periodic instrument ticks: the report/sample grid and its lifecycle.

Gauges and periodic probes tick from a self-rescheduling callback; these
tests pin what the schedule looks like from outside — when the first
tick lands, that pausing a gauge keeps its grid, that ``dispose()`` /
``stop()`` leave no live work behind, that restarting never runs two
chains — and that the realtime scheduler under a ``FakeClock`` produces
the simulated kernel's publish log.
"""

import pytest

from repro.bus.bus import EventBus, FixedDelay
from repro.monitoring.gauges import LatestValueGauge
from repro.monitoring.probes import CallbackProbe
from repro.realtime.clock import FakeClock
from repro.realtime.scheduler import RealtimeScheduler
from repro.sim import Simulator

PERIOD = 1.0


def grid(start, count, period=PERIOD):
    """``count`` tick times after ``start``, accumulated like the kernel."""
    times, t = [], start
    for _ in range(count):
        t = t + period
        times.append(t)
    return times


class Rig:
    """Two buses, a publish log on each, one gauge fed by hand."""

    def __init__(self, sim):
        self.sim = sim
        self.probe_bus = EventBus(sim, FixedDelay(0.0), name="probe-bus")
        self.gauge_bus = EventBus(sim, FixedDelay(0.0), name="gauge-bus")
        self.log = []
        for bus in (self.probe_bus, self.gauge_bus):
            bus.subscribe(">", lambda m: self.log.append((m.time, m.subject)))
        self.gauge = LatestValueGauge(
            sim, self.probe_bus, self.gauge_bus, "load", "T0", period=PERIOD
        )

    def feed(self, value=1.0):
        self.probe_bus.publish_subject("probe.load.T0", target="T0", value=value)

    def reports(self):
        return [t for t, subject in self.log if subject == "gauge.load.T0"]

    def probe(self, batch=1):
        return CallbackProbe(
            self.sim, self.probe_bus, "depth", "T0", lambda: 2.0, PERIOD, batch=batch
        )

    def samples(self):
        return [t for t, subject in self.log if subject == "probe.depth.T0"]


class TestGaugeTicks:
    def test_first_report_one_period_after_activation(self):
        rig = Rig(Simulator())
        rig.sim.schedule_at(0.3, rig.gauge.activate)
        rig.sim.schedule_at(0.4, rig.feed)
        rig.sim.run(until=3.5)
        assert rig.reports() == grid(0.3, 3)
        assert rig.gauge.reports == 3

    def test_activation_does_no_work_synchronously(self):
        rig = Rig(Simulator())
        rig.gauge.activate()
        rig.feed()
        assert rig.log == [] and rig.gauge.reports == 0
        # the start hop and the fed sample's delivery, nothing due later yet
        assert rig.sim.peek() == 0.0

    def test_deactivate_then_activate_keeps_the_grid(self):
        rig = Rig(Simulator())
        rig.sim.schedule_at(0.3, rig.gauge.activate)
        rig.sim.schedule_at(0.4, rig.feed)
        rig.sim.schedule_at(1.5, rig.gauge.deactivate, False)  # keep the value
        rig.sim.schedule_at(3.8, rig.gauge.activate)
        rig.sim.run(until=5.5)
        # silent at 2.3 and 3.3, back on the 0.3 grid afterwards
        ticks = grid(0.3, 5)
        assert rig.reports() == [ticks[0], ticks[3], ticks[4]]

    def test_silent_when_there_is_no_value(self):
        rig = Rig(Simulator())
        rig.gauge.activate()
        rig.sim.schedule_at(1.5, rig.feed)
        rig.sim.run(until=3.5)
        assert rig.reports() == [2.0, 3.0]

    def test_dispose_mid_period_leaves_no_live_work(self):
        rig = Rig(Simulator())
        rig.gauge.activate()
        rig.sim.schedule_at(0.1, rig.feed)
        rig.sim.schedule_at(2.5, rig.gauge.dispose)
        rig.sim.run(until=10.0)
        assert rig.reports() == [1.0, 2.0]
        assert rig.sim.peek() is None  # the pending tick fired as a no-op
        assert len(rig.probe_bus.subscriptions) == 1  # only the log's

    def test_dispose_before_the_start_hop(self):
        rig = Rig(Simulator())
        rig.gauge.activate()
        rig.gauge.dispose()
        rig.sim.run(until=5.0)
        assert rig.log == []
        assert rig.sim.peek() is None

    def test_dispose_then_activate_never_double_ticks(self):
        rig = Rig(Simulator())
        rig.gauge.activate()
        rig.sim.schedule_at(0.1, rig.feed)

        def restart():
            rig.gauge.dispose()  # the 3.0 tick of the old chain is pending
            rig.gauge.activate()
            rig.gauge._last = 7.0  # disposed: no subscription feeds it

        rig.sim.schedule_at(2.5, restart)
        rig.sim.run(until=5.9)
        assert rig.reports() == [1.0, 2.0] + grid(2.5, 3)

    def test_activate_twice_starts_one_chain(self):
        rig = Rig(Simulator())
        rig.gauge.activate()
        rig.gauge.activate()
        rig.sim.schedule_at(0.1, rig.feed)
        rig.sim.run(until=2.5)
        assert rig.reports() == [1.0, 2.0]


class TestPeriodicProbeTicks:
    def test_first_sample_at_start_then_every_period(self):
        rig = Rig(Simulator())
        probe = rig.probe()
        rig.sim.schedule_at(0.3, probe.start)
        rig.sim.run(until=3.0)
        assert rig.samples() == [0.3] + grid(0.3, 2)
        assert probe.samples == 3

    def test_start_does_not_sample_synchronously(self):
        rig = Rig(Simulator())
        probe = rig.probe()
        probe.start()
        assert probe.samples == 0
        with pytest.raises(RuntimeError, match="already started"):
            probe.start()

    def test_stop_mid_period_leaves_no_live_work(self):
        rig = Rig(Simulator())
        probe = rig.probe()
        probe.start()
        rig.sim.schedule_at(1.5, probe.stop)
        rig.sim.run(until=10.0)
        assert rig.samples() == [0.0, 1.0]
        assert rig.sim.peek() is None

    def test_stop_then_start_never_double_ticks(self):
        rig = Rig(Simulator())
        probe = rig.probe()
        probe.start()

        def restart():
            probe.stop()  # the 2.0 tick of the old chain is pending
            probe.start()

        rig.sim.schedule_at(1.5, restart)
        rig.sim.run(until=4.0)
        assert rig.samples() == [0.0, 1.0, 1.5] + grid(1.5, 2)

    def test_batched_probe_flushes_its_tail_on_stop(self):
        rig = Rig(Simulator())
        probe = rig.probe(batch=3)
        got = []
        rig.probe_bus.subscribe("probe.depth.T0", got.append)
        probe.start()
        rig.sim.schedule_at(4.5, probe.stop)
        rig.sim.run(until=10.0)
        # samples at 0..4: one full batch at t=2, the tail of two on stop
        assert [(m.time, list(m["times"])) for m in got] == [
            (2.0, [0.0, 1.0, 2.0]),
            (4.5, [3.0, 4.0]),
        ]
        assert (probe.samples, probe.batches) == (5, 2)
        assert rig.sim.peek() is None
        probe.stop()  # idempotent, nothing left to flush
        assert probe.batches == 2


def scripted_run(sim):
    """A lifecycle script touching every transition; returns the log."""
    rig = Rig(sim)
    probe, batched = rig.probe(), rig.probe(batch=2)
    sim.schedule_at(0.0, probe.start)
    sim.schedule_at(0.25, batched.start)
    sim.schedule_at(0.3, rig.gauge.activate)
    for k in range(12):
        sim.schedule_at(0.4 + 0.7 * k, rig.feed, float(k))
    sim.schedule_at(2.5, rig.gauge.deactivate, False)
    sim.schedule_at(3.6, probe.stop)
    sim.schedule_at(4.1, rig.gauge.activate)
    sim.schedule_at(4.2, probe.start)
    sim.schedule_at(6.5, rig.gauge.dispose)
    sim.schedule_at(6.6, rig.gauge.activate)
    sim.schedule_at(7.3, batched.stop)
    sim.run(until=9.0)
    return rig.log, (rig.gauge.reports, probe.samples, batched.batches)


def test_realtime_scheduler_on_a_fake_clock_matches_the_sim_kernel():
    sim_log, sim_counts = scripted_run(Simulator())
    rt_log, rt_counts = scripted_run(RealtimeScheduler(FakeClock()))
    assert rt_log == sim_log
    assert rt_counts == sim_counts
    subjects = {subject for _, subject in sim_log}
    assert subjects == {"probe.load.T0", "probe.depth.T0", "gauge.load.T0"}
