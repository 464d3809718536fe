"""Unit tests for the gauge manager and the model-updater consumer."""

import pytest

from repro.bus import EventBus, FixedDelay
from repro.errors import GaugeError
from repro.experiment.runner import GAUGE_PROPERTY_MAP
from repro.monitoring import GaugeManager
from repro.monitoring.gauges import WindowedMeanGauge
from repro.runtime import PropertyUpdater
from repro.sim import Simulator
from repro.styles import build_client_server_model


def buses(sim):
    return EventBus(sim, FixedDelay(0.0)), EventBus(sim, FixedDelay(0.0))


def client_server_updater(model, gauge_bus, arch_manager=None):
    return PropertyUpdater(
        model, gauge_bus, arch_manager, property_map=GAUGE_PROPERTY_MAP
    )


def latency_gauge(sim, probe_bus, gauge_bus, client="C1"):
    return WindowedMeanGauge(sim, probe_bus, gauge_bus, "latency", client, period=5.0)


class TestGaugeManager:
    def test_create_charges_deploy_delay(self):
        sim = Simulator()
        pb, gb = buses(sim)
        mgr = GaugeManager(sim, create_delay=14.0)
        gauge = mgr.create(latency_gauge(sim, pb, gb))
        assert not gauge.active
        sim.run(until=14.0)
        assert gauge.active

    def test_immediate_create(self):
        sim = Simulator()
        pb, gb = buses(sim)
        mgr = GaugeManager(sim)
        gauge = mgr.create(latency_gauge(sim, pb, gb), immediate=True)
        assert gauge.active

    def test_duplicate_rejected(self):
        sim = Simulator()
        pb, gb = buses(sim)
        mgr = GaugeManager(sim)
        mgr.create(latency_gauge(sim, pb, gb), immediate=True)
        with pytest.raises(GaugeError):
            mgr.create(latency_gauge(sim, pb, gb))

    def test_delete(self):
        sim = Simulator()
        pb, gb = buses(sim)
        mgr = GaugeManager(sim)
        gauge = mgr.create(latency_gauge(sim, pb, gb), immediate=True)
        mgr.delete(gauge.name)
        assert mgr.gauges == []
        with pytest.raises(GaugeError):
            mgr.delete(gauge.name)

    def test_entity_index_and_redeploy(self):
        sim = Simulator()
        pb, gb = buses(sim)
        mgr = GaugeManager(sim, create_delay=0.0)
        g1 = mgr.create(latency_gauge(sim, pb, gb, "C1"),
                        entities=["C1"], immediate=True)
        g2 = mgr.create(
            WindowedMeanGauge(sim, pb, gb, "load", "SG1", period=5.0),
            entities=["SG1"], immediate=True,
        )
        n = mgr.redeploy_for("C1", window=10.0)
        assert n == 1
        assert not g1.active and g2.active
        sim.run(until=10.0)
        assert g1.active
        assert mgr.redeployments == 1

    def test_redeploy_unknown_entity_noop(self):
        sim = Simulator()
        mgr = GaugeManager(sim)
        assert mgr.redeploy_for("ghost", window=5.0) == 0

    def test_cached_redeploy_preserves_window(self):
        sim = Simulator()
        pb, gb = buses(sim)
        mgr = GaugeManager(sim, cached=True)
        gauge = mgr.create(latency_gauge(sim, pb, gb), entities=["C1"],
                           immediate=True)
        pb.publish_subject("probe.latency.C1", target="C1", value=1.5)
        sim.run(until=1.0)
        mgr.redeploy_for("C1", window=2.0)
        assert gauge._value() is not None  # state survived (cached mode)


class TestClientServerUpdater:
    """The paper scenario's gauge map through the one updater."""

    def _fixture(self):
        sim = Simulator()
        _, gauge_bus = buses(sim)
        model = build_client_server_model(
            "M", assignments={"C1": "SG1"}, groups={"SG1": ["S1"]},
        )
        updater = client_server_updater(model, gauge_bus)
        return sim, gauge_bus, model, updater

    def test_latency_applied_to_component_and_role(self):
        sim, bus, model, updater = self._fixture()
        bus.publish_subject("gauge.latency.C1", value=4.2)
        sim.run()
        assert model.component("C1").get_property("averageLatency") == 4.2
        role = model.connector("link_C1").role("client")
        assert role.get_property("averageLatency") == 4.2
        assert updater.applied == 1

    def test_bandwidth_applied_to_link_and_role(self):
        sim, bus, model, updater = self._fixture()
        bus.publish_subject("gauge.bandwidth.C1", value=8000.0)
        sim.run()
        link = model.connector("link_C1")
        assert link.get_property("bandwidth") == 8000.0
        assert link.role("client").get_property("bandwidth") == 8000.0

    def test_load_and_utilization_applied_to_group(self):
        sim, bus, model, updater = self._fixture()
        bus.publish_subject("gauge.load.SG1", value=11.0)
        bus.publish_subject("gauge.utilization.SG1", value=0.8)
        sim.run()
        assert model.component("SG1").get_property("load") == 11.0
        assert model.component("SG1").get_property("utilization") == 0.8

    def test_unknown_target_skipped(self):
        sim, bus, model, updater = self._fixture()
        bus.publish_subject("gauge.latency.C9", value=1.0)
        bus.publish_subject("gauge.load.SG9", value=1.0)
        sim.run()
        assert updater.applied == 0
        assert updater.skipped == 2

    def test_updates_trigger_manager_evaluation(self):
        sim, bus, model, _ = self._fixture()

        class FakeManager:
            def __init__(self):
                self.calls = 0

            def evaluate(self):
                self.calls += 1

        mgr = FakeManager()
        client_server_updater(model, bus, arch_manager=mgr)
        bus.publish_subject("gauge.latency.C1", value=9.0)
        sim.run()
        assert mgr.calls == 1
