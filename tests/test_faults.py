"""The fault plane: seeded injection, determinism, every fault class."""

import pytest

from repro.bus.bus import EventBus, FixedDelay
from repro.bus.messages import Message
from repro.bus.sharding import ShardedEventBus
from repro.errors import ReproError
from repro.faults import (
    BusFaultSpec,
    EffectorFaultSpec,
    FaultPlane,
    FaultSpec,
    OutageSpec,
    ProbeDropoutSpec,
)
from repro.monitoring.probes import CallbackProbe
from repro.repair.context import RuntimeIntent
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace


class RecordingExecutor:
    """Stub translator: applies intents immediately, records them."""

    def __init__(self, sim):
        self.sim = sim
        self.executed = []
        self.completions = 0

    def execute(self, intents, on_done=None):
        self.executed.extend(intents)
        if on_done is not None:
            self.sim.schedule(0.0, on_done)


class FlappingComponent:
    def __init__(self):
        self.up = True
        self.transitions = []

    def fail(self):
        self.up = False
        self.transitions.append("down")

    def recover(self):
        self.up = True
        self.transitions.append("up")


def outage_spec(**over):
    defaults = dict(targets=("C",), mtbf=20.0, outage_mean=10.0)
    defaults.update(over)
    return FaultSpec(seed=7, outages=(OutageSpec(**defaults),))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_duplicate_outage_targets():
    spec = FaultSpec(
        outages=(
            OutageSpec(targets=("A", "B"), mtbf=10.0, outage_mean=5.0),
            OutageSpec(targets=("B",), mtbf=10.0, outage_mean=5.0),
        )
    )
    with pytest.raises(ValueError, match="more than one OutageSpec"):
        spec.validate()


def test_spec_rejects_bad_probabilities():
    with pytest.raises(ValueError, match="must be <= 1"):
        EffectorFaultSpec(fail_prob=0.6, noop_prob=0.3, hang_prob=0.2).validate()
    with pytest.raises(ValueError, match="mtbf must be positive"):
        OutageSpec(targets=("A",), mtbf=0.0, outage_mean=5.0).validate()


def test_inert_and_disabled_specs_are_not_active():
    assert not FaultSpec().active()
    assert not outage_spec().__class__(
        seed=7, enabled=False, outages=outage_spec().outages
    ).active()
    assert outage_spec().active()


# ---------------------------------------------------------------------------
# component outages
# ---------------------------------------------------------------------------

def test_outage_schedule_is_deterministic_and_traced():
    def run_once():
        sim = Simulator()
        trace = Trace()
        comp = FlappingComponent()
        plane = FaultPlane(sim, outage_spec(), trace=trace)
        plane.bind_component("C", on_fail=comp.fail, on_recover=comp.recover)
        plane.start()
        sim.run(until=200.0)
        times = [
            (r.time, r.category)
            for r in trace.records
            if r.category in ("fault.crash", "fault.recover")
        ]
        return times, comp.transitions, plane.stats()

    first = run_once()
    second = run_once()
    assert first == second
    times, transitions, stats = first
    assert stats["crashes"] >= 1
    assert transitions[0] == "down"
    # crash/recover strictly alternate
    categories = [c for _, c in times]
    assert categories == (
        ["fault.crash", "fault.recover"] * (len(categories) // 2)
        + (["fault.crash"] if len(categories) % 2 else [])
    )


def test_outage_schedule_identical_across_fault_subsets():
    """Control (outages-only) and adapted (full faults) runs must see the
    same crash times: each fault class draws from its own stream."""

    def crash_times(spec):
        sim = Simulator()
        trace = Trace()
        comp = FlappingComponent()
        plane = FaultPlane(sim, spec, trace=trace)
        plane.bind_component("C", on_fail=comp.fail, on_recover=comp.recover)
        plane.start()
        sim.run(until=300.0)
        return [r.time for r in trace.records if r.category == "fault.crash"]

    outages_only = outage_spec()
    full = FaultSpec(
        seed=7,
        outages=outages_only.outages,
        effector=EffectorFaultSpec(fail_prob=0.5),
        probe_dropouts=ProbeDropoutSpec(mtbd=50.0, dropout_mean=10.0),
        bus=BusFaultSpec(drop_prob=0.5),
    )
    assert crash_times(outages_only) == crash_times(full)


def test_unbound_outage_target_fails_loudly():
    sim = Simulator()
    plane = FaultPlane(sim, outage_spec())
    with pytest.raises(ReproError, match="never bound"):
        plane.start()


def test_max_outages_caps_cycles():
    sim = Simulator()
    trace = Trace()
    comp = FlappingComponent()
    spec = outage_spec(mtbf=5.0, outage_mean=2.0, max_outages=2)
    plane = FaultPlane(sim, spec, trace=trace)
    plane.bind_component("C", on_fail=comp.fail, on_recover=comp.recover)
    plane.start()
    sim.run(until=10_000.0)
    assert plane.stats()["crashes"] == 2
    assert plane.stats()["recoveries"] == 2


def test_disabled_plane_schedules_nothing():
    sim = Simulator()
    comp = FlappingComponent()
    spec = FaultSpec(seed=7, enabled=False, outages=outage_spec().outages)
    plane = FaultPlane(sim, spec)
    plane.bind_component("C", on_fail=comp.fail, on_recover=comp.recover)
    plane.start()  # must not raise despite enabled=False
    sim.run(until=500.0)
    assert comp.transitions == []


# ---------------------------------------------------------------------------
# effector faults
# ---------------------------------------------------------------------------

def intents(*ops):
    return [RuntimeIntent(op) for op in ops]


def wrap(sim, trace, inner, **spec_over):
    spec = FaultSpec(seed=3, effector=EffectorFaultSpec(**spec_over))
    plane = FaultPlane(sim, spec, trace=trace)
    return plane.wrap_translator(inner), plane


def test_effector_raise_applies_nothing_and_reports_error():
    sim = Simulator()
    inner = RecordingExecutor(sim)
    faulty, plane = wrap(sim, Trace(), inner, fail_prob=1.0)
    seen = []
    faulty.execute(intents("drainSite"), on_done=lambda err=None: seen.append(err))
    sim.run(until=1.0)
    assert inner.executed == []
    assert seen == ["EffectorRaise:drainSite"]
    assert plane.counters["effector_raised"] == 1


def test_effector_noop_drops_one_intent_and_completes():
    sim = Simulator()
    inner = RecordingExecutor(sim)
    faulty, plane = wrap(sim, Trace(), inner, noop_prob=1.0)
    seen = []
    faulty.execute(intents("a", "b"), on_done=lambda err=None: seen.append(err))
    sim.run(until=1.0)
    # every intent no-opped, completion still signalled (no error)
    assert inner.executed == []
    assert seen == [None]
    assert plane.counters["effector_noops"] == 2


def test_effector_hang_never_completes():
    sim = Simulator()
    inner = RecordingExecutor(sim)
    faulty, plane = wrap(sim, Trace(), inner, hang_prob=1.0)
    seen = []
    faulty.execute(intents("a", "b"), on_done=lambda err=None: seen.append(err))
    sim.run(until=100.0)
    assert seen == []
    assert plane.counters["effector_hangs"] == 1


def test_effector_ops_filter_passes_unlisted_ops_through():
    sim = Simulator()
    inner = RecordingExecutor(sim)
    spec = FaultSpec(
        seed=3,
        effector=EffectorFaultSpec(fail_prob=1.0, ops=("drainSite",)),
    )
    plane = FaultPlane(sim, spec, trace=Trace())
    faulty = plane.wrap_translator(inner)
    seen = []
    faulty.execute(intents("other"), on_done=lambda err=None: seen.append(err))
    sim.run(until=1.0)
    assert [i.op for i in inner.executed] == ["other"]
    assert seen == [None]


def test_wrap_translator_is_identity_without_effector_faults():
    sim = Simulator()
    inner = RecordingExecutor(sim)
    plane = FaultPlane(sim, outage_spec())
    assert plane.wrap_translator(inner) is inner


# ---------------------------------------------------------------------------
# probe dropout
# ---------------------------------------------------------------------------

def test_probe_dropout_window_silences_probe_then_restores():
    sim = Simulator()
    trace = Trace()
    bus = EventBus(sim, delivery=FixedDelay(0.0))
    probe = CallbackProbe(sim, bus, "healthy", "S", lambda: 1.0, period=1.0)
    spec = FaultSpec(
        seed=11,
        probe_dropouts=ProbeDropoutSpec(mtbd=30.0, dropout_mean=20.0),
    )
    plane = FaultPlane(sim, spec, trace=trace)
    plane.bind_probe(probe)
    probe.start()
    plane.start()
    sim.run(until=300.0)
    stats = plane.stats()
    assert stats["probe_dropouts"] >= 1
    # the probe published strictly fewer reports than the no-fault count
    assert probe.reports < 300
    dark = [r.time for r in trace.records if r.category == "fault.probe_dark"]
    restored = [r.time for r in trace.records if r.category == "fault.probe_restored"]
    assert dark and len(restored) >= len(dark) - 1


def test_probe_dropout_targets_filter_by_name():
    sim = Simulator()
    bus = EventBus(sim, delivery=FixedDelay(0.0))
    hit = CallbackProbe(sim, bus, "healthy", "siteA", lambda: 1.0, period=1.0)
    miss = CallbackProbe(sim, bus, "healthy", "siteB", lambda: 1.0, period=1.0)
    spec = FaultSpec(
        seed=11,
        probe_dropouts=ProbeDropoutSpec(
            mtbd=10.0, dropout_mean=50.0, targets=("siteA",)
        ),
    )
    plane = FaultPlane(sim, spec)
    plane.bind_probe(hit)
    plane.bind_probe(miss)
    hit.start()
    miss.start()
    plane.start()
    sim.run(until=200.0)
    assert hit.reports < miss.reports
    assert miss.reports == 201  # samples at t = 0, 1, ..., 200 inclusive


# ---------------------------------------------------------------------------
# bus delivery faults
# ---------------------------------------------------------------------------

def test_bus_faults_drop_and_count_dead_letters():
    sim = Simulator()
    bus = EventBus(sim, delivery=FixedDelay(0.0), name="probe-bus")
    received = []
    bus.subscribe("probe.>", received.append)
    spec = FaultSpec(seed=5, bus=BusFaultSpec(drop_prob=1.0))
    plane = FaultPlane(sim, spec)
    plane.bind_bus(bus)
    for i in range(10):
        bus.publish(Message("probe.x.S", {"value": float(i)}, sim.now))
    sim.run(until=1.0)
    assert received == []
    assert bus.dead_letters == 10
    assert bus.stats()["dead_letters"] == 10
    stats = plane.stats()
    assert stats["dead_letters"] == 10
    assert list(stats["dead_letters_by_subscriber"].values()) == [10]


def test_bus_faults_on_a_sharded_bus_count_dead_letters_per_subscriber():
    sim = Simulator()
    bus = ShardedEventBus(
        sim, 2, {"S0": 0, "S1": 1}.get, delivery=FixedDelay(0.0), name="probe-bus"
    )
    received = []
    bus.subscribe("probe.>", received.append)  # "sub-1" on both children
    bus.subscribe("probe.x.S1", received.append)  # "sub-2" on child 1
    plane = FaultPlane(sim, FaultSpec(seed=5, bus=BusFaultSpec(drop_prob=1.0)))
    plane.bind_bus(bus)
    for target in ("S0", "S1", "S1"):
        bus.publish(Message(f"probe.x.{target}", {"value": 1.0}, sim.now))
    sim.run(until=1.0)
    assert received == []
    stats = plane.stats()
    assert stats["dead_letters"] == 5
    # children number subscriptions independently: each key names its child
    assert stats["dead_letters_by_subscriber"] == {
        "probe-bus:sub-1[0]": 1,
        "probe-bus:sub-1[1]": 2,
        "probe-bus:sub-2[1]": 2,
    }


def test_a_one_shard_bus_reports_dead_letters_as_a_plain_bus_does():
    def run(bus):
        sim = bus.sim
        bus.subscribe("probe.>", lambda m: None)
        plane = FaultPlane(sim, FaultSpec(seed=5, bus=BusFaultSpec(drop_prob=0.5)))
        plane.bind_bus(bus)
        for i in range(20):
            bus.publish(Message("probe.x.S", {"value": float(i)}, sim.now))
        sim.run(until=1.0)
        return plane.stats(), bus.stats()

    sim = Simulator()
    plain = run(EventBus(sim, delivery=FixedDelay(0.0), name="probe-bus"))
    sim = Simulator()
    sharded = run(
        ShardedEventBus(sim, 1, {}.get, delivery=FixedDelay(0.0), name="probe-bus")
    )
    assert sharded == plain
    assert 0 < plain[0]["dead_letters"] < 20
    assert list(plain[0]["dead_letters_by_subscriber"]) == ["probe-bus:sub-1"]


def test_bus_faults_respect_bus_and_subject_filters():
    sim = Simulator()
    probe_bus = EventBus(sim, delivery=FixedDelay(0.0), name="probe-bus")
    gauge_bus = EventBus(sim, delivery=FixedDelay(0.0), name="gauge-bus")
    spec = FaultSpec(
        seed=5,
        bus=BusFaultSpec(
            drop_prob=1.0, buses=("probe-bus",), subjects=("probe.healthy",)
        ),
    )
    plane = FaultPlane(sim, spec)
    plane.bind_bus(probe_bus)
    plane.bind_bus(gauge_bus)
    assert gauge_bus.fault_injector is None  # filtered out by bus name
    got = []
    probe_bus.subscribe("probe.>", got.append)
    probe_bus.publish(Message("probe.healthy.S", {}, sim.now))
    probe_bus.publish(Message("probe.latency.S", {}, sim.now))
    sim.run(until=1.0)
    assert [m.subject for m in got] == ["probe.latency.S"]
    assert probe_bus.dead_letters == 1


def test_bus_without_faults_reports_no_dead_letter_stats():
    sim = Simulator()
    bus = EventBus(sim, delivery=FixedDelay(0.0))
    bus.publish(Message("probe.x", {}, sim.now))
    sim.run(until=1.0)
    assert "dead_letters" not in bus.stats()
