"""Threshold-gated checker wakeups.

Covers the :class:`ThresholdGate` state machine — crossing, staying
crossed, un-crossing, and the hysteresis band that stops
boundary-hugging values from flapping — plus the ``telemetry``
counter contract and the gate's integration with the generic
:class:`PropertyUpdater` (suppressed reports still update the model;
they just don't wake the architecture manager).  Every runtime has a
gate; one over no thresholds wakes on every report.
"""

import math

import pytest

from repro import api
from repro.acme.system import ArchSystem
from repro.bus.bus import EventBus
from repro.experiment.scenarios import scenario_builder
from repro.monitoring.manager import ThresholdGate, WakeThreshold
from repro.runtime.updater import PropertyUpdater
from repro.sim import Simulator


class TestWakeThreshold:
    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            WakeThreshold(1.0, direction="sideways")

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="NaN"):
            WakeThreshold(math.nan)

    def test_rejects_negative_band(self):
        with pytest.raises(ValueError, match="band"):
            WakeThreshold(1.0, band=-0.1)

    def test_inf_threshold_allowed(self):
        # math.inf is the never-wake idiom for informational kinds.
        spec = WakeThreshold(math.inf)
        assert spec.threshold == math.inf


class TestThresholdGateAbove:
    def gate(self, band=0.2):
        return ThresholdGate({"load": WakeThreshold(1.0, band=band)})

    def test_healthy_reports_are_suppressed(self):
        g = self.gate()
        assert not g.should_wake("load", "A", 0.5)
        assert not g.should_wake("load", "A", 0.9)
        assert g.stats() == {"wakeups": 0, "suppressed_reports": 2}

    def test_crossing_wakes(self):
        g = self.gate()
        assert not g.should_wake("load", "A", 0.5)
        assert g.should_wake("load", "A", 1.1)

    def test_stays_awake_while_crossed(self):
        g = self.gate()
        assert g.should_wake("load", "A", 1.1)
        assert g.should_wake("load", "A", 1.5)
        assert g.should_wake("load", "A", 2.0)

    def test_uncrossing_wakes_once_then_suppresses(self):
        g = self.gate()
        assert g.should_wake("load", "A", 1.1)  # crossing
        assert g.should_wake("load", "A", 0.5)  # recovery report
        assert not g.should_wake("load", "A", 0.5)  # healthy again
        assert g.stats() == {"wakeups": 2, "suppressed_reports": 1}

    def test_hysteresis_band_prevents_flap(self):
        # Once crossed at 1.0, only a retreat below 1.0 - 0.2 clears:
        # values oscillating inside the band keep the crossed state.
        g = self.gate(band=0.2)
        assert g.should_wake("load", "A", 1.05)
        assert g.should_wake("load", "A", 0.95)  # in band: still crossed
        assert g.should_wake("load", "A", 0.85)  # in band: still crossed
        assert g.should_wake("load", "A", 0.75)  # below band: un-cross
        assert not g.should_wake("load", "A", 0.95)  # healthy (< 1.0)

    def test_targets_tracked_independently(self):
        g = self.gate()
        assert g.should_wake("load", "A", 1.5)
        assert not g.should_wake("load", "B", 0.5)

    def test_unknown_kind_always_wakes(self):
        g = self.gate()
        assert g.should_wake("latency", "A", 0.0)
        assert g.stats()["wakeups"] == 1

    def test_inf_threshold_never_wakes(self):
        g = ThresholdGate({"keys": WakeThreshold(math.inf)})
        for value in (0.0, 1e9, 1e300):
            assert not g.should_wake("keys", "A", value)
        assert g.stats() == {"wakeups": 0, "suppressed_reports": 3}


class TestThresholdGateBelow:
    def gate(self):
        return ThresholdGate(
            {"utilization": WakeThreshold(0.4, band=0.1, direction="below")}
        )

    def test_crossing_from_below(self):
        g = self.gate()
        assert not g.should_wake("utilization", "T0", 0.8)
        assert g.should_wake("utilization", "T0", 0.3)  # dropped under

    def test_hysteresis_mirrored(self):
        g = self.gate()
        assert g.should_wake("utilization", "T0", 0.35)  # crossed
        assert g.should_wake("utilization", "T0", 0.45)  # in band (< 0.5)
        assert g.should_wake("utilization", "T0", 0.55)  # above band: clears
        assert not g.should_wake("utilization", "T0", 0.45)  # healthy (>= 0.4)

    def test_counter_contract(self):
        g = self.gate()
        values = [0.8, 0.3, 0.45, 0.55, 0.45, 0.9]
        for value in values:
            g.should_wake("utilization", "T0", value)
        stats = g.stats()
        assert stats["wakeups"] + stats["suppressed_reports"] == len(values)


class FakeManager:
    def __init__(self):
        self.evaluations = 0

    def evaluate(self):
        self.evaluations += 1


class TestGatedPropertyUpdater:
    def wire(self, gate):
        sim = Simulator()
        bus = EventBus(sim)
        system = ArchSystem("S")
        system.new_component("A", ["NodeT"])
        manager = FakeManager()
        updater = PropertyUpdater(
            system,
            bus,
            manager,
            property_map={"load": "load"},
            gate=gate,
        )
        return sim, bus, system, manager, updater

    def report(self, sim, bus, value):
        bus.publish_subject("gauge.load.A", value=value)
        sim.run()

    def test_suppressed_report_still_updates_model(self):
        gate = ThresholdGate({"load": WakeThreshold(1.0)})
        sim, bus, system, manager, updater = self.wire(gate)
        self.report(sim, bus, 0.5)
        assert system.component("A").get_property("load") == 0.5
        assert updater.applied == 1
        assert manager.evaluations == 0

    def test_crossing_report_wakes_manager(self):
        gate = ThresholdGate({"load": WakeThreshold(1.0)})
        sim, bus, system, manager, updater = self.wire(gate)
        self.report(sim, bus, 0.5)
        self.report(sim, bus, 1.5)
        self.report(sim, bus, 1.2)
        self.report(sim, bus, 0.5)  # recovery wakes once more
        self.report(sim, bus, 0.5)
        assert manager.evaluations == 3
        assert updater.applied == 5
        assert gate.stats() == {"wakeups": 3, "suppressed_reports": 2}

    def test_no_gate_evaluates_every_report(self):
        sim, bus, system, manager, updater = self.wire(None)
        for value in (0.1, 0.2, 0.3):
            self.report(sim, bus, value)
        assert manager.evaluations == 3
        # the default gate has no thresholds: it counts, never suppresses
        assert updater.gate.stats() == {"wakeups": 3, "suppressed_reports": 0}


class TestTheRuntimeGate:
    """Every runtime has one wake gate, thresholds or not."""

    def test_a_spec_without_thresholds_wakes_on_every_applied_report(self):
        config = api.RunConfig.adapted("client_server", horizon=300.0)
        experiment = scenario_builder("client_server")(config)
        runtime = experiment.runtime
        assert not runtime.spec.wake_thresholds
        assert all(updater.gate is runtime.wake_gate for updater in runtime.updaters)
        result = experiment.run()
        applied = sum(updater.applied for updater in runtime.updaters)
        assert applied > 0
        assert runtime.wake_gate.stats() == {
            "wakeups": applied,
            "suppressed_reports": 0,
        }
        assert result.stats.telemetry["wakeups"] == applied
