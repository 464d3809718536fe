"""The bus's one delivery path, and the knobs of the removed second one.

Every subscription receives each matching message one delivery delay
after publish, as one item of the kernel run of its instant.  This
module pins what that path promises on its own — same-instant bursts in
publish order, per-subscriber order equal to publish order (on a single
bus and through the sharded facade), unsubscribe while in flight,
transit accounting at delivery — and that every knob of the removed
queued path and cross-shard commit is refused, not silently ignored
(see ``docs/migration.md``, "What PR 39 removed").
"""

import dataclasses

import numpy as np
import pytest

from repro.acme.sharding import ShardedArchSystem
from repro.bus import CallableDelay, EventBus, FixedDelay
from repro.bus.sharding import ShardedEventBus
from repro.errors import ReproError
from repro.experiment.config import RunConfig
from repro.experiment.map_reduce_scenario import MapReduceParams
from repro.repair import ShardCoordinator
from repro.runtime import AdaptationSpec, ShardingSpec
from repro.sim import Simulator

SHARD_OF = {f"E{e}": e % 3 for e in range(6)}


def make_bus(delay=0.01):
    sim = Simulator()
    return sim, EventBus(sim, delivery=FixedDelay(delay))


def make_sharded_bus(delay=0.01, shards=3):
    sim = Simulator()
    return sim, ShardedEventBus(sim, shards, SHARD_OF.get, delivery=FixedDelay(delay))


class TestSameInstantDelivery:
    def test_burst_arrives_in_publish_order_one_delay_later(self):
        sim, bus = make_bus()
        got = []
        bus.subscribe("probe.>", lambda m: got.append((sim.now, m.subject)))
        for i in range(5):
            bus.publish_subject(f"probe.x.E{i}")
        sim.run()
        assert got == [(0.01, f"probe.x.E{i}") for i in range(5)]
        assert bus.delivered == 5

    def test_separate_instants_deliver_separately(self):
        sim, bus = make_bus()
        got = []
        bus.subscribe("a.b", lambda m: got.append(sim.now))
        bus.publish_subject("a.b")
        sim.schedule(1.0, bus.publish_subject, "a.b")
        sim.run()
        assert got == [0.01, 1.01]

    def test_handler_publish_lands_one_delay_later(self):
        sim, bus = make_bus()
        got = []

        def echo(m):
            got.append((sim.now, m.subject))
            if m.subject == "a.ping":
                bus.publish_subject("a.pong")

        bus.subscribe("a.>", echo)
        bus.publish_subject("a.ping")
        bus.publish_subject("a.other")
        sim.run()
        # the echo is not slipped into the running instant
        assert got == [(0.01, "a.ping"), (0.01, "a.other"), (0.02, "a.pong")]

    def test_subscribers_of_one_message_run_in_subscription_order(self):
        sim, bus = make_bus()
        got = []
        bus.subscribe("a.>", lambda m: got.append("tail"))
        bus.subscribe("a.b", lambda m: got.append("exact"))
        bus.subscribe("a.*", lambda m: got.append("star"))
        bus.publish_subject("a.b")
        sim.run()
        assert got == ["tail", "exact", "star"]

    def test_negative_delay_is_clamped_to_now(self):
        sim = Simulator()
        bus = EventBus(sim, delivery=CallableDelay(lambda m: -1.0))
        got = []
        bus.subscribe("a.b", lambda m: got.append(sim.now))
        sim.schedule(2.0, bus.publish_subject, "a.b")
        sim.run()
        assert got == [2.0]
        assert bus.total_transit == 0.0

    def test_a_raising_handler_leaves_the_rest_of_its_instant_queued(self):
        sim, bus = make_bus()
        got = []

        def handler(m):
            if m["i"] == 1 and not got.count("raised"):
                got.append("raised")
                raise RuntimeError("handler failure")
            got.append(m["i"])

        bus.subscribe("a.b", handler)
        for i in range(4):
            bus.publish_subject("a.b", i=i)
        with pytest.raises(RuntimeError, match="handler failure"):
            sim.run()
        assert got == [0, "raised"]
        sim.run()
        # the unrun tail runs next, at its own instant, in publish order
        assert got == [0, "raised", 2, 3]
        assert sim.now == 0.01


class TestUnsubscribeInFlight:
    @pytest.mark.parametrize("kind", ["single", "sharded"])
    @pytest.mark.parametrize("delay", [0.0, 0.01, 1.0])
    def test_in_flight_messages_are_discarded(self, kind, delay):
        sim, bus = (make_bus if kind == "single" else make_sharded_bus)(delay)
        got = []
        sub = bus.subscribe("probe.>", got.append)
        for e in range(4):
            bus.publish_subject(f"probe.x.E{e}")
        bus.unsubscribe(sub)  # before any delivery fires
        sim.run()
        assert got == []
        assert bus.delivered == 0
        assert bus.mean_transit == 0.0
        assert bus.published == 4

    def test_unsubscribe_mid_burst_discards_remainder(self):
        sim, bus = make_bus()
        got = []
        holder = {}

        def handler(m):
            got.append(m["i"])
            if m["i"] == 1:
                bus.unsubscribe(holder["sub"])

        holder["sub"] = bus.subscribe("a.b", handler)
        for i in range(4):
            bus.publish_subject("a.b", i=i)
        sim.run()
        assert got == [0, 1]
        assert bus.delivered == 2
        assert bus.total_transit == pytest.approx(0.02)

    def test_a_new_subscription_sees_only_later_publishes(self):
        sim, bus = make_bus(delay=1.0)
        old, new = [], []
        sub = bus.subscribe("a.b", lambda m: old.append(m["i"]))
        bus.publish_subject("a.b", i=0)  # in flight to ``sub`` only
        bus.unsubscribe(sub)
        bus.subscribe("a.b", lambda m: new.append(m["i"]))
        bus.publish_subject("a.b", i=1)
        sim.run()
        assert old == []
        assert new == [1]


class TestOrderProperty:
    """Each subscriber observes the messages it matches in publish order,
    on one bus and through the sharded facade alike."""

    def _population(self, bus, log):
        def recorder(tag):
            return lambda m: log.append((tag, m["i"]))

        for e in range(6):
            bus.subscribe(f"probe.latency.E{e}", recorder(f"exact{e}"))
            bus.subscribe(f"gauge.*.E{e}", recorder(f"star{e}"))
        bus.subscribe("probe.>", recorder("fire0"))
        bus.subscribe("probe.>", recorder("fire1"))

    def _schedule(self, seed, bus, n=400):
        rng = np.random.default_rng(seed)
        published = []
        t = 0.0
        for i in range(n):
            t += float(rng.exponential(0.004))
            e = int(rng.integers(0, 6))
            kind = "probe.latency" if rng.random() < 0.5 else "gauge.value"
            subject = f"{kind}.E{e}"
            published.append((subject, i))
            bus.sim.schedule_at(t, lambda s=subject, i=i: bus.publish_subject(s, i=i))
        return published

    def _run(self, sim, bus, seed):
        log = []
        self._population(bus, log)
        published = self._schedule(seed, bus)
        sim.run()
        return log, published

    @pytest.mark.parametrize("seed", [7, 2002, 90210])
    def test_per_subscriber_order_is_publish_order(self, seed):
        sim, bus = make_bus()
        log, published = self._run(sim, bus, seed)
        expected = {
            f"exact{e}": [i for s, i in published if s == f"probe.latency.E{e}"]
            for e in range(6)
        }
        expected.update(
            {
                f"star{e}": [i for s, i in published if s == f"gauge.value.E{e}"]
                for e in range(6)
            }
        )
        probes = [i for s, i in published if s.startswith("probe.")]
        expected["fire0"] = expected["fire1"] = probes
        for tag, indices in expected.items():
            assert [i for t, i in log if t == tag] == indices, tag
        assert len(log) == sum(len(v) for v in expected.values())

    @pytest.mark.parametrize("seed", [7, 2002, 90210])
    def test_sharded_facade_delivers_what_one_bus_delivers(self, seed):
        logs = {}
        for kind, build in (("single", make_bus), ("sharded", make_sharded_bus)):
            sim, bus = build()
            logs[kind], _ = self._run(sim, bus, seed)
        single, sharded = logs["single"], logs["sharded"]
        assert len(single) == len(sharded) > 0
        for tag in {tag for tag, _ in single}:
            assert [i for t, i in single if t == tag] == [
                i for t, i in sharded if t == tag
            ], f"subscriber {tag} observed a different message order"


class TestTransitAccounting:
    def test_total_transit_is_the_sum_of_delivered_delays(self):
        sim = Simulator()
        bus = EventBus(sim, delivery=CallableDelay(lambda m: 0.1 * m["i"]))
        bus.subscribe("a.b", lambda m: None)
        for i in range(1, 5):
            bus.publish_subject("a.b", i=i)
        sim.run()
        assert bus.delivered == 4
        assert bus.total_transit == pytest.approx(0.1 + 0.2 + 0.3 + 0.4)
        assert bus.mean_transit == pytest.approx(0.25)

    def test_dead_letters_accrue_no_transit(self):
        sim, bus = make_bus(delay=0.5)
        bus.fault_injector = lambda sub, msg: msg["i"] % 2 == 1
        sub = bus.subscribe("a.b", lambda m: None)
        for i in range(4):
            bus.publish_subject("a.b", i=i)
        sim.run()
        assert bus.delivered == 2
        assert bus.dead_letters == 2
        assert bus.dead_letters_by_sid == {sub.sid: 2}
        assert bus.total_transit == pytest.approx(1.0)
        assert bus.stats()["dead_letters"] == 2

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_stats_carry_only_the_one_path_counters(self, kind):
        sim, bus = (make_bus if kind == "single" else make_sharded_bus)()
        bus.subscribe("probe.>", lambda m: None)
        bus.publish_subject("probe.x.E1")
        sim.run()
        assert bus.stats() == {
            "published": 1,
            "delivered": 1,
            "mean_transit": pytest.approx(0.01),
        }


class TestWholeRunDelivery:
    """The kernel hands an instant's deliveries to one ``_deliver`` call;
    what each delivery does, and the tail a raise leaves, are per item."""

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_a_raise_on_the_kth_delivery_leaves_the_tail_for_the_next_step(self, k):
        sim, bus = make_bus(delay=0.25)
        got = []

        def handler(m):
            if m["i"] == k and "raised" not in got:
                got.append("raised")
                raise RuntimeError("kth delivery")
            got.append(m["i"])

        bus.subscribe("a.b", handler)
        for i in range(5):
            bus.publish_subject("a.b", i=i)
        with pytest.raises(RuntimeError, match="kth delivery"):
            sim.step()
        assert got == list(range(k)) + ["raised"]
        # the k-th delivery was made (and counted) before its handler raised
        assert bus.delivered == k + 1
        assert bus.total_transit == 0.25 * (k + 1)
        assert sim.step() is (k < 4)  # one action: the whole tail
        assert got == list(range(k)) + ["raised"] + list(range(k + 1, 5))
        assert bus.delivered == 5
        assert bus.total_transit == 0.25 * 5
        assert sim.now == 0.25
        assert sim.peek() is None

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_an_earlier_handler_unsubscribing_a_later_one_drops_its_delivery(
        self, kind
    ):
        sim, bus = (make_bus if kind == "single" else make_sharded_bus)()
        got = []
        later = {}

        def first(m):
            got.append(("first", m["i"]))
            if m["i"] == 0:
                bus.unsubscribe(later["sub"])

        bus.subscribe("probe.x.E1", first)
        later["sub"] = bus.subscribe(
            "probe.x.E1", lambda m: got.append(("later", m["i"]))
        )
        for i in range(2):
            bus.publish_subject("probe.x.E1", i=i)
        assert sim.step()  # both messages' four deliveries are one run
        assert sim.peek() is None
        assert got == [("first", 0), ("first", 1)]
        assert bus.delivered == 2
        assert bus.mean_transit == pytest.approx(0.01)

    def test_a_one_delivery_run_delivers_as_before(self):
        # paper_cs's shape: a per-message delay, so each delivery is
        # alone at its instant
        sim = Simulator()
        bus = EventBus(sim, delivery=CallableDelay(lambda m: 0.1 * m["i"]))
        got = []
        bus.subscribe("a.b", lambda m: got.append((sim.now, m["i"], m.time)))
        for i in (3, 1, 2):
            bus.publish_subject("a.b", i=i)
        steps = 0
        while sim.step():
            steps += 1
            assert bus.delivered == steps
        assert steps == 3
        assert got == [(0.1 * i, i, 0.0) for i in (1, 2, 3)]
        assert bus.total_transit == 0.1 * 1 + 0.1 * 2 + 0.1 * 3


class TestRemovedKnobsAreRefused:
    """A caller still passing a knob of the removed paths gets an error."""

    @pytest.mark.parametrize("knob", ["batched", "queue_policy"])
    def test_bus_constructors(self, knob):
        with pytest.raises(TypeError, match=knob):
            EventBus(Simulator(), **{knob: None})
        with pytest.raises(TypeError, match=knob):
            ShardedEventBus(Simulator(), 2, SHARD_OF.get, **{knob: None})

    @pytest.mark.parametrize("knob", ["batched", "queue_policy"])
    def test_subscribe(self, knob):
        for _, bus in (make_bus(), make_sharded_bus()):
            with pytest.raises(TypeError, match=knob):
                bus.subscribe("a.b", lambda m: None, **{knob: None})

    @pytest.mark.parametrize(
        "knob", ["bus_batching", "bus_queue_policy", "bus_queue_capacity"]
    )
    def test_map_reduce_params(self, knob):
        assert knob not in MapReduceParams.field_names()
        assert knob not in {f.name for f in dataclasses.fields(AdaptationSpec)}
        with pytest.raises(ReproError, match=knob):
            RunConfig.adapted("map_reduce").but(**{knob: None})

    def test_sharding_spec_lock_cap(self):
        with pytest.raises(TypeError, match="max_lock_shards"):
            ShardingSpec(shards=2, max_lock_shards=1)
        with pytest.raises(ReproError, match="max_lock_shards"):
            RunConfig.adapted("multi_tenant_sharded").but(
                **{"sharding.max_lock_shards": 1}
            )

    def test_cross_shard_commit_surface(self):
        import repro.repair

        with pytest.raises(ModuleNotFoundError):
            import repro.bus.queues  # noqa: F401
        assert not hasattr(repro.repair, "CrossRepairOutcome")
        for name in ("submit_cross", "shards_of", "deferrals"):
            assert not hasattr(ShardCoordinator, name), name
        assert not hasattr(ShardedArchSystem, "shards_of_elements")
        # the coordinator takes its managers and nothing else
        with pytest.raises(TypeError):
            ShardCoordinator(Simulator(), None, [])
