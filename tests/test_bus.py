"""Unit tests for the event bus and subjects."""

import pickle

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
        assert m.attributes.get("y", 5) == 5

    def test_empty_subject_rejected(self):
        with pytest.raises(ValueError):
            Message("")

    def test_malformed_subject_rejected(self):
        with pytest.raises(ValueError):
            Message("a..b")

    def test_with_time(self):
        m = Message("a.b", {"x": 1}, time=0.0)
        assert m.with_time(9.0).time == 9.0

    def test_with_time_copies_the_attribute_dict(self):
        m = Message("a.b", {"x": 1}, 1.0, "s")
        later = m.with_time(2.0)
        assert later == Message("a.b", {"x": 1}, 2.0, "s")
        assert later.attributes is not m.attributes
        later.attributes["x"] = 2
        assert m["x"] == 1

    @pytest.mark.parametrize("field", ["subject", "attributes", "time", "sender"])
    def test_every_field_refuses_assignment(self, field):
        m = Message("a.b", {"x": 1}, 1.0, "s")
        with pytest.raises(AttributeError):
            setattr(m, field, None)
        with pytest.raises(AttributeError):
            delattr(m, field)
        with pytest.raises(AttributeError):
            m.extra = 1  # no __dict__ either
        assert m == Message("a.b", {"x": 1}, 1.0, "s")

    def test_a_bus_built_message_is_an_ordinary_message(self):
        # the bus door builds its messages unchecked, with tuple.__new__
        sim = Simulator()
        bus = EventBus(sim, delivery=FixedDelay(0.0))
        got = []
        bus.subscribe("probe.>", got.append)
        publish = bus.publish_subject
        sim.schedule(3.0, lambda: publish("probe.latency.C1", "p", target="C1"))
        sim.run()
        args = ("probe.latency.C1", {"target": "C1"}, 3.0, "p")
        [built] = got
        assert built == Message(*args)
        assert type(built) is Message
        assert repr(built) == repr(Message(*args))

    def test_repr_is_the_dataclass_repr(self):
        # captured from the frozen dataclass this record replaced
        m = Message(
            "probe.latency.C3", {"value": 1.5, "target": "C3"}, 2.5, "probe.latency.C3"
        )
        assert repr(m) == (
            "Message(subject='probe.latency.C3', attributes={'value': 1.5, "
            "'target': 'C3'}, time=2.5, sender='probe.latency.C3')"
        )
        assert repr(Message("a.b")) == (
            "Message(subject='a.b', attributes={}, time=0.0, sender='')"
        )

    def test_pickling_round_trips(self):
        m = Message("a.b", {"x": [1, 2]}, 1.5, "s")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(m, protocol))
            assert type(back) is Message
            assert back == m
            assert back.attributes == {"x": [1, 2]}

    def test_a_key_reads_an_attribute_never_a_position(self):
        m = Message("a.b", {0: "zero", "k": "v"}, 1.0, "s")
        assert m["k"] == "v"
        assert m[0] == "zero"  # attribute 0, not the subject
        with pytest.raises(KeyError):
            m[1]
        with pytest.raises(KeyError):
            Message("a.b")["subject"]

    def test_keywords_and_defaults(self):
        m = Message(subject="a.b", sender="s")
        assert (m.subject, m.attributes, m.time, m.sender) == ("a.b", {}, 0.0, "s")
        assert Message("a.b").attributes is not Message("a.b").attributes

    def test_equality_is_by_fields(self):
        m = Message("a.b", {"x": 1}, 1.0, "s")
        assert m == Message("a.b", {"x": 1}, 1.0, "s")
        assert m != Message("a.b", {"x": 1}, 1.0, "t")
        assert m != Message("a.b", {"x": 2}, 1.0, "s")


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
        delay = CallableDelay(lambda m: m.attributes.get("pri", 1.0))
        bus = EventBus(sim, delivery=delay)
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
