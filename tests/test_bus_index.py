"""Trie-indexed publish path: validation, matching, and equivalence.

The crucial property is that the subject-segment trie is *observationally
identical* to the linear scan it replaced: same matched subscriptions,
same delivery order, same statistics.  The scan is the reference
(``tests/reference/bus.py``): ``linear_bus`` builds an ``EventBus`` with
``LinearIndex`` installed in place of the trie.
"""

import random

import pytest
from reference import linear_bus

from repro.bus import (
    EventBus,
    FixedDelay,
    SubjectTrie,
    subject_matches,
    validate_pattern,
)
from repro.bus.bus import Subscription
from repro.bus.messages import Message
from repro.sim import Simulator


class TestValidatePattern:
    def test_accepts_well_formed(self):
        for p in ("a", "a.b.c", "probe.*.C3", "probe.>", "*", "*.b", "a.*.>"):
            assert validate_pattern(p) == p

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            validate_pattern("")

    def test_rejects_empty_segments(self):
        for p in ("a..b", ".a", "a.", "..", "probe..>"):
            with pytest.raises(ValueError):
                validate_pattern(p)

    def test_rejects_interior_tail_wildcard(self):
        for p in (">.a", "a.>.b", "probe.>.C3"):
            with pytest.raises(ValueError):
                validate_pattern(p)

    def test_rejects_non_string(self):
        with pytest.raises(ValueError):
            validate_pattern(None)

    def test_subscribe_uses_validation(self):
        sim = Simulator()
        bus = EventBus(sim)
        with pytest.raises(ValueError):
            bus.subscribe("a..b", lambda m: None)
        with pytest.raises(ValueError):
            bus.subscribe("a.>.b", lambda m: None)

    @pytest.mark.parametrize("indexed", [True, False])
    def test_subscribe_validates_once_before_it_registers(self, indexed, monkeypatch):
        import repro.bus.bus as bus_module
        import repro.bus.index as index_module

        seen = []

        def counting(pattern):
            seen.append(pattern)
            return validate_pattern(pattern)

        monkeypatch.setattr(bus_module, "validate_pattern", counting)
        monkeypatch.setattr(index_module, "validate_pattern", counting)
        bus = (EventBus if indexed else linear_bus)(Simulator())
        for bad in ("a..b", "a.>.b", "", None):
            with pytest.raises(ValueError) as raised:
                bus.subscribe(bad, lambda m: None)
            with pytest.raises(ValueError) as wanted:
                validate_pattern(bad)
            assert str(raised.value) == str(wanted.value)
        assert bus.subscriptions == [] and bus._seq == 0
        seen.clear()
        sub = bus.subscribe("a.*.>", lambda m: None)
        assert seen == ["a.*.>"]  # the trie used to validate it a second time
        assert sub.sid == "sub-1" and bus.publish_subject("a.b.c") == 1


def _sub(seq: int, pattern: str) -> Subscription:
    return Subscription(f"sub-{seq}", pattern, lambda m: None, seq=seq)


class TestSubjectTrie:
    def test_exact_star_and_tail(self):
        trie = SubjectTrie()
        exact = _sub(1, "a.b.c")
        star = _sub(2, "a.*.c")
        tail = _sub(3, "a.>")
        for s in (exact, star, tail):
            trie.add(s)
        assert list(trie.match("a.b.c")) == [exact, star, tail]
        assert list(trie.match("a.x.c")) == [star, tail]
        assert list(trie.match("a.b")) == [tail]
        assert list(trie.match("a")) == []
        assert list(trie.match("b.b.c")) == []

    def test_tail_requires_at_least_one_more_segment(self):
        trie = SubjectTrie()
        tail = _sub(1, "probe.>")
        trie.add(tail)
        assert list(trie.match("probe")) == []
        assert list(trie.match("probe.x")) == [tail]
        assert list(trie.match("probe.x.y.z")) == [tail]

    def test_match_order_is_subscription_order(self):
        trie = SubjectTrie()
        late_exact = _sub(9, "a.b")
        early_star = _sub(1, "a.*")
        trie.add(late_exact)
        trie.add(early_star)
        assert list(trie.match("a.b")) == [early_star, late_exact]

    def test_remove_prunes(self):
        trie = SubjectTrie()
        s1, s2 = _sub(1, "a.b.c"), _sub(2, "a.*")
        trie.add(s1)
        trie.add(s2)
        assert len(trie) == 2
        trie.remove(s1)
        assert len(trie) == 1
        assert list(trie.match("a.b.c")) == []
        assert list(trie.match("a.b")) == [s2]
        trie.remove(s1)  # idempotent
        assert len(trie) == 1
        trie.remove(s2)
        assert list(trie.match("a.b")) == []
        assert trie._root.is_empty()

    def test_rejects_malformed_pattern(self):
        with pytest.raises(ValueError):
            SubjectTrie().add(_sub(1, "a..b"))

    @pytest.mark.parametrize(
        "subject",
        ["", "a..b", ".a", "a."],
        ids=["empty", "inner", "leading", "trailing"],
    )
    def test_malformed_subject_is_rejected_and_never_memoised(self, subject):
        trie = SubjectTrie()
        trie.add(_sub(1, "a.>"))
        for _ in range(2):  # a second attempt must not find a memoised route
            with pytest.raises(ValueError) as raised:
                trie.match(subject)
            with pytest.raises(ValueError) as wanted:
                Message(subject)
            assert str(raised.value) == str(wanted.value)
            assert trie._memo == {}


# ---------------------------------------------------------------------------
# Property-style equivalence: trie vs linear scan, and vs subject_matches
# ---------------------------------------------------------------------------

_ALPHABET = ["alpha", "beta", "gamma", "delta"]


def _random_pattern(rng: random.Random) -> str:
    depth = rng.randint(1, 4)
    parts = []
    for i in range(depth):
        roll = rng.random()
        if roll < 0.15 and i == depth - 1:
            parts.append(">")
        elif roll < 0.40:
            parts.append("*")
        else:
            parts.append(rng.choice(_ALPHABET))
    return ".".join(parts)


def _random_subject(rng: random.Random) -> str:
    return ".".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 4)))


def _recorder(log: list, k: int):
    return lambda m: log.append((k, m.subject))


class TestTrieLinearEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_match_sets_agree_with_subject_matches(self, seed):
        rng = random.Random(seed)
        trie = SubjectTrie()
        subs = [_sub(i, _random_pattern(rng)) for i in range(80)]
        for s in subs:
            trie.add(s)
        for _ in range(300):
            subject = _random_subject(rng)
            expected = [s for s in subs if subject_matches(s.pattern, subject)]
            assert list(trie.match(subject)) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_buses_deliver_identically(self, seed):
        """Same subs + same publishes -> identical deliveries and stats."""
        rng = random.Random(1000 + seed)
        sim = Simulator()
        indexed = EventBus(sim, delivery=FixedDelay(0.01))
        linear = linear_bus(sim, delivery=FixedDelay(0.01))
        got_indexed, got_linear = [], []
        subs_indexed, subs_linear = [], []
        for k in range(60):
            pattern = _random_pattern(rng)
            on_indexed, on_linear = _recorder(got_indexed, k), _recorder(got_linear, k)
            subs_indexed.append(indexed.subscribe(pattern, on_indexed))
            subs_linear.append(linear.subscribe(pattern, on_linear))
        for idx in rng.sample(range(60), 12):
            indexed.unsubscribe(subs_indexed[idx])
            linear.unsubscribe(subs_linear[idx])
        for _ in range(250):
            subject = _random_subject(rng)
            value = rng.random()
            n_indexed = indexed.publish_subject(subject, v=value)
            n_linear = linear.publish_subject(subject, v=value)
            assert n_indexed == n_linear
        sim.run()
        assert got_indexed == got_linear
        assert indexed.published == linear.published
        assert indexed.delivered == linear.delivered
        assert indexed.total_transit == linear.total_transit

    @pytest.mark.parametrize("seed", range(4))
    def test_buses_deliver_identically_through_faults(self, seed):
        """The rest of the delivery loop: a subscription switched off but
        still indexed, a fault injector that draws from an RNG once per
        wanted delivery, and a subject two literal subscribers share."""
        rng = random.Random(3000 + seed)
        sim = Simulator()
        buses = [
            EventBus(sim, delivery=FixedDelay(0.01)),
            linear_bus(sim, delivery=FixedDelay(0.01)),
        ]
        got = [[], []]
        fault_rngs = [random.Random(seed), random.Random(seed)]
        draws = [0, 0]
        shared = "alpha.beta"

        def injector(side):
            def inject(sub, msg):
                draws[side] += 1
                return fault_rngs[side].random() < 0.2

            return inject

        for side, bus in enumerate(buses):
            bus.fault_injector = injector(side)
        for k in range(40):
            pattern = shared if k < 2 else _random_pattern(rng)
            switched_off = k >= 2 and rng.random() < 0.15
            for side, bus in enumerate(buses):
                sub = bus.subscribe(pattern, _recorder(got[side], k))
                if switched_off:
                    sub.active = False
        for _ in range(300):
            subject = shared if rng.random() < 0.2 else _random_subject(rng)
            value = rng.random()
            counts = [bus.publish_subject(subject, v=value) for bus in buses]
            assert counts[0] == counts[1]
            if subject == shared:
                assert counts[0] >= 2  # two-way fan-out of one message
            if rng.random() < 0.03:  # rarely: deliveries interleave publishes
                sim.run(until=sim.now + 0.01)
        sim.run()
        assert got[0] == got[1]
        assert got[0]
        assert draws[0] == draws[1] > 300
        assert fault_rngs[0].getstate() == fault_rngs[1].getstate()
        for key in ("published", "delivered", "dead_letters"):
            assert buses[0].stats()[key] == buses[1].stats()[key]
        assert buses[0].stats() == buses[1].stats()
        assert buses[0].dead_letters_by_sid == buses[1].dead_letters_by_sid
        assert buses[0].dead_letters

    @pytest.mark.parametrize("indexed", [True, False])
    def test_malformed_subject_never_gets_through_the_publish_door(self, indexed):
        sim = Simulator()
        bus = (EventBus if indexed else linear_bus)(sim)
        got = []
        bus.subscribe("a.>", got.append)
        for attempt in range(3):
            for subject in ("a..b", "", "a."):
                with pytest.raises(ValueError) as raised:
                    bus.publish_subject(subject, v=1)
                with pytest.raises(ValueError) as wanted:
                    Message(subject)
                assert str(raised.value) == str(wanted.value)
            if attempt == 1 and indexed:
                with pytest.raises(ValueError):
                    bus._index.match("a..b")
            assert bus.publish_subject("a.b", v=attempt) == 1  # memo stays usable
        sim.run()
        assert bus.published == 3 and [m["v"] for m in got] == [0, 1, 2]

    def test_message_built_on_a_memo_hit_is_an_ordinary_message(self):
        sim = Simulator()
        bus = EventBus(sim, delivery=FixedDelay(0.0))
        got = []
        bus.subscribe("a.*", got.append)
        assert bus._index._memo == {}
        bus.publish_subject("a.b", sender="s", v=1)  # route built: a miss
        assert "a.b" in bus._index._memo
        bus.publish_subject("a.b", sender="s", v=1)  # routed from the memo
        bus.publish(Message("a.b", {"v": 1}, sender="s"))  # the validating door
        sim.run()
        on_miss, on_hit, validated = got
        assert on_miss == on_hit == validated == Message("a.b", {"v": 1}, 0.0, "s")
        assert repr(on_hit) == repr(validated)
        with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
            on_hit.subject = "x.y"
        with pytest.raises(AttributeError):
            del on_hit.time
        later = on_hit.with_time(2.5)
        assert later == Message("a.b", {"v": 1}, 2.5, "s")
        assert later.attributes is not on_hit.attributes and on_hit.time == 0.0

    @pytest.mark.parametrize("seed,cap", [(0, None), (1, None), (2, None), (3, 8)])
    def test_buses_agree_under_churn(self, seed, cap, monkeypatch):
        """subscribe / unsubscribe / publish / deliver in random order.

        Subjects come from a small pool, so the route memo is hot when a
        subscription change must invalidate it; unsubscribes land between
        a publish and its delivery.  ``cap`` shrinks the memo bound so the
        clear-on-overflow path runs too.
        """
        if cap is not None:
            monkeypatch.setattr("repro.bus.index.ROUTE_MEMO_CAP", cap)
        rng = random.Random(2000 + seed)
        sim = Simulator()
        buses = [
            EventBus(sim, delivery=FixedDelay(0.01)),
            linear_bus(sim, delivery=FixedDelay(0.01)),
        ]
        got = [[], []]
        live = [[], []]
        subjects = [_random_subject(rng) for _ in range(6 if cap is None else 40)]
        serial = 0
        for _ in range(600):
            roll = rng.random()
            if roll < 0.15:
                pattern = rng.choice([_random_pattern(rng), rng.choice(subjects)])
                serial += 1
                for side, bus in enumerate(buses):
                    sub = bus.subscribe(pattern, _recorder(got[side], serial))
                    live[side].append(sub)
            elif roll < 0.25 and live[0]:
                idx = rng.randrange(len(live[0]))
                for side, bus in enumerate(buses):
                    bus.unsubscribe(live[side].pop(idx))
            elif roll < 0.90:
                subject, value = rng.choice(subjects), rng.random()
                counts = [bus.publish_subject(subject, v=value) for bus in buses]
                assert counts[0] == counts[1]
            else:
                sim.run(until=sim.now + rng.choice([0.005, 0.02]))
            assert len(buses[0]._index._memo) <= (cap or len(subjects))
        sim.run()
        assert got[0] == got[1]
        assert got[0]  # not vacuous
        assert buses[0].stats() == buses[1].stats()

    def test_route_memo_is_dropped_on_every_subscription_change(self):
        trie = SubjectTrie()
        first = _sub(1, "a.b")
        trie.add(first)
        assert trie.match("a.b") is trie.match("a.b")  # second call: memo hit
        late = _sub(2, "a.*")
        trie.add(late)
        assert list(trie.match("a.b")) == [first, late]
        trie.remove(first)
        assert list(trie.match("a.b")) == [late]

    def test_mid_run_subscribe_matches_linear_semantics(self):
        sim = Simulator()
        indexed = EventBus(sim, delivery=FixedDelay(0.0))
        got = []
        indexed.publish_subject("a.b")  # nobody listening yet
        indexed.subscribe("a.>", lambda m: got.append(m.subject))
        indexed.publish_subject("a.b")
        sim.run()
        assert got == ["a.b"]
