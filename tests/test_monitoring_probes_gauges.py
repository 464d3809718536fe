"""Unit tests for probes and gauges (the Figure 4 monitoring levels).

The client/server observations — latency, queue length, bandwidth,
utilization — run through the one message shape (``target`` + float
``value``) and the three gauges (windowed mean, EWMA, latest value).
"""

from itertools import chain, repeat
from math import isfinite

import pytest

from repro.app import Client, GridApplication, Server
from repro.bus import EventBus, FixedDelay
from repro.monitoring import (
    BandwidthProbe,
    CallbackProbe,
    ClientLatencyProbe,
    EwmaGauge,
    Gauge,
    LatestValueGauge,
    UtilizationProbe,
    WindowedMeanGauge,
)
from repro.net import FlowNetwork, RemosService, Topology
from repro.sim import Simulator
from repro.util.rng import SeedSequenceFactory
from repro.util.windows import StepFunction


def mini_app(rate=0.0):
    topo = Topology()
    for h in ("mc", "ms", "mrq"):
        topo.add_host(h)
    topo.add_router("r")
    for h in ("mc", "ms", "mrq"):
        topo.add_link(h, "r", 10e6)
    sim = Simulator()
    net = FlowNetwork(sim, topo)
    app = GridApplication(sim, net, rq_machine="mrq")
    app.add_client(Client(
        sim, "C1", "mc", StepFunction([(0.0, rate)]),
        lambda t, rng: 20e3, SeedSequenceFactory(3).rng("C1"),
    ))
    app.add_server(Server(sim, "S1", "ms", net, service_base=0.2))
    group = app.create_group("SG1")
    app.rq.assign("C1", "SG1")
    server = app.server("S1")
    server.connect("SG1", group.queue)
    group.add(server)
    server.activate()
    return sim, net, app


def buses(sim):
    return EventBus(sim, FixedDelay(0.0)), EventBus(sim, FixedDelay(0.0))


def queue_probe(sim, probe_bus, app, period=1.0):
    """The paper's server-load probe: a group's waiting-request count."""
    return CallbackProbe(
        sim, probe_bus, "load", "SG1", lambda: app.group_load("SG1"), period=period
    )


def latency_gauge(sim, probe_bus, gauge_bus, **kwargs):
    return WindowedMeanGauge(sim, probe_bus, gauge_bus, "latency", "C1", **kwargs)


class TestClientLatencyProbe:
    def test_reports_each_completion(self):
        sim, net, app = mini_app(rate=1.0)
        probe_bus, _ = buses(sim)
        probe = ClientLatencyProbe(sim, probe_bus, app, "C1")
        seen = []
        probe_bus.subscribe("probe.latency.C1", lambda m: seen.append(m["value"]))
        app.start_clients(20.0)
        sim.run(until=25.0)
        assert len(seen) == app.client("C1").received
        assert probe.reports == len(seen)
        assert all(lat > 0 for lat in seen)

    def test_disabled_probe_is_silent(self):
        sim, net, app = mini_app(rate=1.0)
        probe_bus, _ = buses(sim)
        probe = ClientLatencyProbe(sim, probe_bus, app, "C1")
        probe.enabled = False
        app.start_clients(10.0)
        sim.run(until=15.0)
        assert probe.reports == 0


class TestPeriodicProbes:
    def test_queue_probe_samples_length(self):
        sim, net, app = mini_app(rate=0.0)
        probe_bus, _ = buses(sim)
        probe = queue_probe(sim, probe_bus, app)
        lengths = []
        probe_bus.subscribe("probe.load.SG1", lambda m: lengths.append(m["value"]))
        probe.start()
        sim.run(until=5.5)
        assert lengths == [0.0] * 6  # t = 0..5

    def test_probe_start_twice_rejected(self):
        sim, net, app = mini_app()
        probe_bus, _ = buses(sim)
        probe = queue_probe(sim, probe_bus, app)
        probe.start()
        with pytest.raises(RuntimeError):
            probe.start()

    def test_probe_stop(self):
        sim, net, app = mini_app()
        probe_bus, _ = buses(sim)
        probe = queue_probe(sim, probe_bus, app)
        probe.start()
        sim.run(until=3.0)
        probe.stop()
        count = probe.reports
        sim.run(until=10.0)
        assert probe.reports == count

    def test_invalid_period(self):
        sim, net, app = mini_app()
        probe_bus, _ = buses(sim)
        with pytest.raises(ValueError):
            queue_probe(sim, probe_bus, app, period=0.0)

    def test_bandwidth_probe_publishes_worst_member_path(self):
        sim, net, app = mini_app()
        remos = RemosService(sim, net, cold_delay=0.0, warm_delay=0.1)
        probe_bus, _ = buses(sim)
        probe = BandwidthProbe(sim, probe_bus, app, remos, "C1", period=5.0)
        seen = []
        probe_bus.subscribe("probe.bandwidth.C1",
                            lambda m: seen.append((m["group"], m["value"])))
        probe.start()
        sim.run(until=6.0)
        assert seen and seen[0][0] == "SG1"
        assert seen[0][1] == pytest.approx(10e6)

    def test_utilization_probe_tracks_busy_fraction(self):
        # service = 0.2 base + 7.5e-6 * 20e3 = 0.35 s; at 2/s -> ~0.7 util
        sim, net, app = mini_app(rate=2.0)
        probe_bus, _ = buses(sim)
        probe = UtilizationProbe(sim, probe_bus, app, "SG1", period=5.0)
        seen = []
        probe_bus.subscribe("probe.utilization.SG1",
                            lambda m: seen.append(m["value"]))
        probe.start()
        app.start_clients(60.0)
        sim.run(until=60.0)
        assert seen
        assert 0.5 < sum(seen[2:]) / len(seen[2:]) < 0.9


class TestGauges:
    def test_latency_gauge_windowed_mean(self):
        sim, net, app = mini_app(rate=2.0)
        probe_bus, gauge_bus = buses(sim)
        ClientLatencyProbe(sim, probe_bus, app, "C1")
        gauge = latency_gauge(sim, probe_bus, gauge_bus, period=5.0, horizon=30.0)
        gauge.activate()
        reports = []
        gauge_bus.subscribe("gauge.latency.C1", lambda m: reports.append(m["value"]))
        app.start_clients(30.0)
        sim.run(until=31.0)
        assert reports
        # service 0.2 s + tiny transfer; light load -> mean near 0.2-0.5 s
        assert 0.1 < reports[-1] < 1.0

    def test_gauge_inactive_before_activation(self):
        sim, net, app = mini_app(rate=2.0)
        probe_bus, gauge_bus = buses(sim)
        ClientLatencyProbe(sim, probe_bus, app, "C1")
        gauge = latency_gauge(sim, probe_bus, gauge_bus, period=5.0)
        app.start_clients(20.0)
        sim.run(until=20.0)
        assert gauge.reports == 0

    def test_gauge_empty_window_no_report(self):
        sim, net, app = mini_app(rate=0.0)  # no traffic at all
        probe_bus, gauge_bus = buses(sim)
        ClientLatencyProbe(sim, probe_bus, app, "C1")
        gauge = latency_gauge(sim, probe_bus, gauge_bus, period=5.0)
        gauge.activate()
        sim.run(until=20.0)
        assert gauge.reports == 0

    def test_deactivate_clears_window_by_default(self):
        sim, net, app = mini_app(rate=2.0)
        probe_bus, gauge_bus = buses(sim)
        ClientLatencyProbe(sim, probe_bus, app, "C1")
        gauge = latency_gauge(sim, probe_bus, gauge_bus, period=5.0)
        gauge.activate()
        app.start_clients(10.0)
        sim.run(until=10.0)
        gauge.deactivate()
        assert gauge._value() is None  # window dropped

    def test_deactivate_cached_keeps_window(self):
        sim, net, app = mini_app(rate=2.0)
        probe_bus, gauge_bus = buses(sim)
        ClientLatencyProbe(sim, probe_bus, app, "C1")
        gauge = latency_gauge(sim, probe_bus, gauge_bus, period=5.0)
        gauge.activate()
        app.start_clients(10.0)
        sim.run(until=10.0)
        gauge.deactivate(clear=False)
        assert gauge._value() is not None

    def test_load_gauge_mean(self):
        sim, net, app = mini_app()
        probe_bus, gauge_bus = buses(sim)
        gauge = WindowedMeanGauge(sim, probe_bus, gauge_bus, "load", "SG1",
                                  period=5.0, horizon=30.0)
        gauge.activate()
        values = []
        gauge_bus.subscribe("gauge.load.SG1", lambda m: values.append(m["value"]))
        # synthesize probe reports: queue length 4, then 8 -> mean 6
        sim.schedule(3.0, lambda: probe_bus.publish_subject(
            "probe.load.SG1", target="SG1", value=4.0))
        sim.schedule(4.0, lambda: probe_bus.publish_subject(
            "probe.load.SG1", target="SG1", value=8.0))
        sim.run(until=6.0)
        assert values and values[-1] == pytest.approx(6.0)

    def test_utilization_gauge_ewma(self):
        sim, net, app = mini_app()
        probe_bus, gauge_bus = buses(sim)
        gauge = EwmaGauge(sim, probe_bus, gauge_bus, "utilization", "SG1", period=5.0)
        gauge.activate()
        values = []
        gauge_bus.subscribe("gauge.utilization.SG1",
                            lambda m: values.append(m["value"]))
        for t in range(1, 5):
            sim.schedule(float(t), lambda: probe_bus.publish_subject(
                "probe.utilization.SG1", target="SG1", value=0.5))
        sim.run(until=6.0)
        assert values and values[-1] == pytest.approx(0.5)

    def test_invalid_gauge_period(self):
        sim, net, app = mini_app()
        probe_bus, gauge_bus = buses(sim)
        with pytest.raises(ValueError):
            WindowedMeanGauge(sim, probe_bus, gauge_bus, "load", "SG1", period=0.0)


class PeakGauge(Gauge):
    """A gauge written against the base's four hooks: the peak value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.peak = None

    def _consume(self, message):
        self._consume_batch(None, [message["value"]])

    def _consume_batch(self, times, values):
        self.peak = max(values if self.peak is None else [self.peak, *values])

    def _value(self):
        return self.peak

    def _clear(self):
        self.peak = None


def test_a_gauge_subclass_supplies_only_the_four_hooks():
    sim = Simulator()
    probe_bus, gauge_bus = buses(sim)
    gauge = PeakGauge(sim, probe_bus, gauge_bus, "load", "SG1", period=5.0)
    reports = []
    gauge_bus.subscribe("gauge.load.SG1", lambda m: reports.append(m["value"]))
    gauge.activate()
    probe_bus.publish_subject("probe.load.SG1", target="SG1", value=3.0)
    probe_bus.publish_subject(
        "probe.load.SG1", target="SG1", times=[0.0, 0.0], values=[1.0, 7.0]
    )
    sim.run(until=5.0)
    assert reports == [7.0]
    gauge.deactivate()
    assert gauge.peak is None
    sim.run(until=10.0)
    assert reports == [7.0]


class TestNonFiniteReads:
    """A read that is not a number is refused at the probe, batched or
    not: nothing is published or buffered, and no gauge ever holds it."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize(
        "gauge_class", [WindowedMeanGauge, EwmaGauge, LatestValueGauge]
    )
    def test_a_nan_read_raises_naming_the_probe(self, gauge_class, batch):
        sim = Simulator()
        probe_bus, gauge_bus = buses(sim)
        reads = chain([1.0, 2.0, float("nan")], repeat(3.0))
        probe = CallbackProbe(
            sim, probe_bus, "load", "SG1", lambda: next(reads), batch=batch
        )
        gauge = gauge_class(sim, probe_bus, gauge_bus, "load", "SG1", period=1.0)
        gauge.activate()
        probe.start()
        with pytest.raises(ValueError, match=r"probe\.load\.SG1: read must be finite"):
            sim.run(until=10.0)
        assert probe.samples == (2 if batch == 1 else 0)
        assert probe._pending_values == ([] if batch == 1 else [1.0, 2.0])
        sim.run(until=sim.now + 0.5)  # deliveries already on the bus land
        value = gauge._value()
        assert value is None or isfinite(value)
