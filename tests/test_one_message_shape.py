"""One monitoring vocabulary: every probe publishes one message shape.

Every probe exported from :mod:`repro.monitoring` publishes on
``probe.<kind>.<target>`` either ``target`` plus a float ``value``, or
(a batching probe's flush) ``target`` plus parallel ``times``/``values``
tuples of floats; every gauge is ``(kind, target)`` and subscribes to
exactly that subject, so any gauge reads any probe of its kind and
target.
"""

import inspect
from functools import partial
from types import SimpleNamespace

import pytest

import repro.monitoring as monitoring
from repro.bus import EventBus, FixedDelay
from repro.monitoring import (
    BandwidthProbe,
    CallbackProbe,
    ClientLatencyProbe,
    EwmaGauge,
    Gauge,
    IngestProbe,
    LatestValueGauge,
    UtilizationProbe,
    WindowedMeanGauge,
)
from repro.net import RemosService
from repro.runtime import monitoring_table
from test_monitoring_probes_gauges import mini_app

GAUGES = [WindowedMeanGauge, EwmaGauge, LatestValueGauge]


def ingest_every_second(sim, probe):
    for t in range(1, 30):
        sim.schedule(float(t), probe.ingest, 0.25 * t)
    return probe


#: probe -> (kind, target, build(sim, bus, app, remos)); the app serves
#: two requests a second from t = 0 to 30 s
PROBES = {
    "ClientLatencyProbe": (
        "latency", "C1", lambda sim, bus, app, remos: ClientLatencyProbe(
            sim, bus, app, "C1"
        ),
    ),
    "BandwidthProbe": (
        "bandwidth", "C1", lambda sim, bus, app, remos: BandwidthProbe(
            sim, bus, app, remos, "C1", period=5.0
        ),
    ),
    "UtilizationProbe": (
        "utilization", "SG1", lambda sim, bus, app, remos: UtilizationProbe(
            sim, bus, app, "SG1", period=5.0
        ),
    ),
    "CallbackProbe": (
        "load", "SG1", lambda sim, bus, app, remos: CallbackProbe(
            sim, bus, "load", "SG1", lambda: app.group_load("SG1")
        ),
    ),
    "CallbackProbe-batch": (
        "load", "SG1", lambda sim, bus, app, remos: CallbackProbe(
            sim, bus, "load", "SG1", lambda: app.group_load("SG1"), batch=4
        ),
    ),
    "IngestProbe": (
        "latency", "C1", lambda sim, bus, app, remos: ingest_every_second(
            sim, IngestProbe(sim, bus, "latency", "C1")
        ),
    ),
    "IngestProbe-batch": (
        "latency", "C1", lambda sim, bus, app, remos: ingest_every_second(
            sim, IngestProbe(sim, bus, "latency", "C1", batch=4)
        ),
    ),
}


def exported(base):
    return sorted(
        name
        for name in monitoring.__all__
        if inspect.isclass(getattr(monitoring, name))
        and issubclass(getattr(monitoring, name), base)
        and getattr(monitoring, name) is not base
    )


def run_probe(variant, gauge_class=None):
    """Run one probe for 30 s; its messages and, if given, a gauge's reports."""
    kind, target, build = PROBES[variant]
    sim, net, app = mini_app(rate=2.0)
    remos = RemosService(sim, net, cold_delay=0.0, warm_delay=0.1)
    probe_bus = EventBus(sim, FixedDelay(0.0))
    gauge_bus = EventBus(sim, FixedDelay(0.0))
    messages, reports = [], []
    probe_bus.subscribe(">", messages.append)
    gauge_bus.subscribe(">", reports.append)
    probe = build(sim, probe_bus, app, remos)
    gauge = None
    if gauge_class is not None:
        gauge = gauge_class(sim, probe_bus, gauge_bus, kind, target, period=5.0)
        gauge.activate()
    if probe.periodic:
        probe.start()
    app.start_clients(30.0)
    sim.run(until=30.0)
    probe.stop()
    sim.run(until=31.0)
    return probe, gauge, messages, reports


def test_every_exported_probe_is_covered():
    covered = {variant.split("-")[0] for variant in PROBES}
    assert covered == {name for name in monitoring.__all__ if name.endswith("Probe")}


def test_the_three_gauges_are_the_only_ones():
    assert exported(Gauge) == sorted(g.__name__ for g in GAUGES)


@pytest.mark.parametrize("variant", sorted(PROBES))
def test_probe_publishes_target_and_float_value(variant):
    kind, target, _ = PROBES[variant]
    probe, _, messages, _ = run_probe(variant)
    assert probe.name == f"probe.{kind}.{target}"
    assert (probe.kind, probe.target) == (kind, target)
    assert messages, "the probe published nothing"
    for message in messages:
        assert message.subject == probe.name
        assert message["target"] == target
        values = message.attributes.get("values")
        if values is None:
            assert type(message["value"]) is float
        else:
            assert "value" not in message.attributes
            assert isinstance(values, tuple) and isinstance(message["times"], tuple)
            assert len(values) == len(message["times"]) > 0
            assert all(type(v) is float for v in values)
    assert probe.reports == len(messages)


@pytest.mark.parametrize("gauge_class", GAUGES, ids=lambda g: g.__name__)
def test_gauge_subscribes_to_its_probe_subject(gauge_class):
    sim, _, _ = mini_app()
    probe_bus = EventBus(sim, FixedDelay(0.0))
    gauge = gauge_class(sim, probe_bus, EventBus(sim, FixedDelay(0.0)), "k", "T")
    assert gauge.name == "gauge.k.T"
    assert gauge._sub.pattern == "probe.k.T"
    assert [s.pattern for s in probe_bus.subscriptions] == ["probe.k.T"]


@pytest.mark.parametrize("gauge_class", GAUGES, ids=lambda g: g.__name__)
@pytest.mark.parametrize("variant", sorted(PROBES))
def test_any_gauge_reads_any_probe_of_its_kind_and_target(variant, gauge_class):
    kind, target, _ = PROBES[variant]
    _, gauge, messages, reports = run_probe(variant, gauge_class)
    assert messages and reports
    assert gauge.reports == len(reports)
    for report in reports:
        assert report.subject == f"gauge.{kind}.{target}"
        assert report["target"] == target
        assert type(report["value"]) is float


def test_a_table_row_whose_probe_publishes_another_kind_is_refused():
    sim, _, app = mini_app()
    bindings = monitoring_table(
        ["SG1"], [("load", partial(UtilizationProbe, app=app), EwmaGauge, {})]
    )
    rt = SimpleNamespace(sim=sim, probe_bus=EventBus(sim, FixedDelay(0.0)))
    with pytest.raises(ValueError, match="probe.utilization.SG1"):
        bindings[0].factory(rt)
