"""Unit tests for the event bus and subjects."""

import pytest

from repro.bus import (
    CallableDelay,
    EventBus,
    FixedDelay,
    Message,
    subject_matches,
)
from repro.sim import Simulator


class TestSubjectMatching:
    def test_exact(self):
        assert subject_matches("a.b.c", "a.b.c")
        assert not subject_matches("a.b.c", "a.b.d")
        assert not subject_matches("a.b", "a.b.c")
        assert not subject_matches("a.b.c", "a.b")

    def test_star_single_segment(self):
        assert subject_matches("probe.*.C3", "probe.latency.C3")
        assert not subject_matches("probe.*.C3", "probe.latency.raw.C3")

    def test_tail_wildcard(self):
        assert subject_matches("probe.>", "probe.latency.C3")
        assert subject_matches("probe.>", "probe.x")
        assert not subject_matches("probe.>", "probe")
        assert not subject_matches("gauge.>", "probe.x")

    def test_tail_wildcard_must_be_last(self):
        with pytest.raises(ValueError):
            subject_matches("a.>.b", "a.x.b")


class TestMessage:
    def test_attribute_access(self):
        m = Message("a.b", {"x": 1})
        assert m["x"] == 1
        assert m.get("y", 5) == 5

    def test_empty_subject_rejected(self):
        with pytest.raises(ValueError):
            Message("")

    def test_malformed_subject_rejected(self):
        with pytest.raises(ValueError):
            Message("a..b")

    def test_with_time(self):
        m = Message("a.b", {"x": 1}, time=0.0)
        assert m.with_time(9.0).time == 9.0


class TestEventBus:
    def _bus(self, delay=0.0):
        sim = Simulator()
        return sim, EventBus(sim, delivery=FixedDelay(delay))

    def test_publish_delivers_to_matching_subscriber(self):
        sim, bus = self._bus()
        got = []
        bus.subscribe("probe.>", lambda m: got.append(m.subject))
        n = bus.publish_subject("probe.latency.C1", latency=1.0)
        assert n == 1
        sim.run()
        assert got == ["probe.latency.C1"]

    def test_non_matching_not_delivered(self):
        sim, bus = self._bus()
        got = []
        bus.subscribe("gauge.>", got.append)
        bus.publish_subject("probe.x")
        sim.run()
        assert got == []

    def test_delivery_delay(self):
        sim, bus = self._bus(delay=0.5)
        seen_at = []
        bus.subscribe("a.b", lambda m: seen_at.append(sim.now))
        bus.publish_subject("a.b")
        sim.run()
        assert seen_at == [0.5]

    def test_publish_is_never_synchronous(self):
        sim, bus = self._bus(delay=0.0)
        got = []
        bus.subscribe("a.b", lambda m: got.append(m))
        bus.publish_subject("a.b")
        assert got == []  # only delivered once the sim runs
        sim.run()
        assert len(got) == 1

    def test_unsubscribe_stops_delivery(self):
        sim, bus = self._bus()
        got = []
        sub = bus.subscribe("a.>", got.append)
        bus.unsubscribe(sub)
        bus.publish_subject("a.b")
        sim.run()
        assert got == []

    def test_unsubscribe_cancels_in_flight(self):
        sim, bus = self._bus(delay=1.0)
        got = []
        sub = bus.subscribe("a.>", got.append)
        bus.publish_subject("a.b")
        bus.unsubscribe(sub)  # before delivery happens
        sim.run()
        assert got == []

    def test_transit_accrues_at_delivery(self):
        sim, bus = self._bus(delay=0.5)
        bus.subscribe("a.b", lambda m: None)
        bus.publish_subject("a.b")
        # nothing accrues at publish: the mean is never skewed by a
        # scheduled-but-undelivered message
        assert bus.total_transit == 0.0
        assert bus.mean_transit == 0.0
        sim.run()
        assert bus.delivered == 1
        assert bus.mean_transit == pytest.approx(0.5)

    def test_unsubscribed_in_flight_never_accrues(self):
        sim, bus = self._bus(delay=1.0)
        sub = bus.subscribe("a.>", lambda m: None)
        bus.publish_subject("a.b")
        bus.unsubscribe(sub)  # delivery cancelled while in flight
        sim.run()
        assert bus.delivered == 0
        assert bus.total_transit == 0.0
        assert bus.mean_transit == 0.0

    def test_callable_delay_model(self):
        sim = Simulator()
        bus = EventBus(sim, delivery=CallableDelay(lambda m: m.get("pri", 1.0)))
        seen_at = {}
        bus.subscribe("x.*", lambda m: seen_at.setdefault(m.subject, sim.now))
        bus.publish_subject("x.slow", pri=5.0)
        bus.publish_subject("x.fast", pri=0.1)
        sim.run()
        assert seen_at["x.fast"] == pytest.approx(0.1)
        assert seen_at["x.slow"] == pytest.approx(5.0)

    def test_statistics(self):
        sim, bus = self._bus(delay=0.25)
        bus.subscribe("a.*", lambda m: None)
        bus.publish_subject("a.b")
        bus.publish_subject("a.c")
        sim.run()
        assert bus.published == 2
        assert bus.delivered == 2
        assert bus.mean_transit == pytest.approx(0.25)

    def test_message_timestamp_normalized_to_publish_time(self):
        sim, bus = self._bus()
        got = []
        bus.subscribe("a.b", lambda m: got.append(m.time))
        sim.schedule(3.0, bus.publish_subject, "a.b")
        sim.run()
        assert got == [3.0]
