"""The report path — sample in, gauge report, model write — counted, not timed.

Three contracts of the path every telemetry sample takes, none of which a
stopwatch can pin on a host whose speed drifts:

* **allocations in flight** (CPython): how many collector-counted objects
  a probe message and a gauge tick leave behind until delivery;
* **the updater's route memo**: subject -> names, never a component;
* **the door**: a non-finite sample is refused where the caller can hear
  it, and a malformed report is counted, not raised through the loop.

The plane is the whole-plane benchmark's in miniature (``multi_tenant``
style, two ingest probes and two gauges per pool, wake thresholds), built
through the public API.
"""

import gc
import math
import sys

import pytest

from repro.acme.system import ArchSystem
from repro.bus.bus import EventBus, FixedDelay
from repro.monitoring.gauges import EwmaGauge, LatestValueGauge, WindowedMeanGauge
from repro.monitoring.manager import WakeThreshold
from repro.monitoring.probes import IngestProbe
from repro.realtime import FakeClock, RealtimeDriver
from repro.runtime import (
    AdaptationRuntime,
    AdaptationSpec,
    GaugeBinding,
    IntentExecutor,
    ManagedApplication,
    ProbeBinding,
    PropertyUpdater,
)
from repro.sim.kernel import Simulator
from repro.styles.multi_tenant import (
    MULTI_TENANT_DSL,
    build_multi_tenant_family,
    build_multi_tenant_model,
    multi_tenant_operators,
)

GAUGE_PERIOD = 5.0
DELIVERY = 0.05
BATCH = 5

#: kind -> gauge factory; together they are every generic value gauge
GAUGE_KINDS = {
    "latency": lambda rt, t: LatestValueGauge(
        rt.sim, rt.probe_bus, rt.gauge_bus, "latency", t, period=GAUGE_PERIOD
    ),
    "utilization": lambda rt, t: EwmaGauge(
        rt.sim, rt.probe_bus, rt.gauge_bus, "utilization", t, period=GAUGE_PERIOD
    ),
    "backlog": lambda rt, t: WindowedMeanGauge(
        rt.sim, rt.probe_bus, rt.gauge_bus, "backlog", t, period=GAUGE_PERIOD
    ),
    "share": lambda rt, t: WindowedMeanGauge(
        rt.sim, rt.probe_bus, rt.gauge_bus, "share", t, period=GAUGE_PERIOD
    ),
}


class _NullEffector(IntentExecutor):
    def __init__(self, sim):
        self.sim = sim

    def execute(self, intents, on_done=None):
        if on_done is not None:
            self.sim.schedule(0.5, on_done)


class _PlaneApp(ManagedApplication):
    name = "report-path-plane"

    def __init__(self, pools):
        self.tenants = [f"T{i}" for i in range(pools)]

    def architecture(self):
        return build_multi_tenant_model(
            "Tenancy",
            tenants=self.tenants,
            pool_size=2,
            min_size=2,
            family=build_multi_tenant_family(),
        )

    def intent_executor(self, runtime):
        return _NullEffector(runtime.sim)


def plane_spec(tenants, kinds, batch):
    instruments = []
    for tenant in tenants:
        for kind in kinds:
            instruments.append(
                ProbeBinding(
                    lambda rt, k=kind, t=tenant: IngestProbe(
                        rt.sim, rt.probe_bus, k, t, batch=batch
                    ),
                    periodic=False,
                )
            )
            instruments.append(
                GaugeBinding(
                    lambda rt, k=kind, t=tenant: GAUGE_KINDS[k](rt, t),
                    entities=[tenant],
                )
            )
    return AdaptationSpec(
        style="MultiTenantFam",
        dsl_source=MULTI_TENANT_DSL,
        invariant_scopes={"f": "TenantPoolT", "i": "TenantPoolT"},
        bindings={
            "maxLatency": 4.0,
            "minUtilization": 0.35,
            "lowWater": 1.0,
            "growStep": 1,
        },
        operators=lambda rt: multi_tenant_operators(max_workers=16),
        instruments=instruments,
        gauge_property_map={kind: kind for kind in kinds},
        delivery=FixedDelay(DELIVERY),
        gauge_create_delay=0.0,
        settle_time=GAUGE_PERIOD,
        concurrency="disjoint",
        max_concurrent_repairs=2 * len(tenants),
        wake_thresholds={
            "latency": WakeThreshold(4.0, band=0.4),
            "utilization": WakeThreshold(0.35, band=0.035, direction="below"),
        },
    )


# ---------------------------------------------------------------------------
# allocations in flight


def count_in_flight(pools, batch):
    """Collector-counted objects per probe message and per gauge tick.

    A ``pools``-pool plane is warmed for two gauge periods (every gauge
    has a value, every route is memoised), then, with the collector off,
    every probe publishes one message — its ``batch``-th sample — and
    every gauge ticks once; the new objects still alive are counted
    while the messages and reports are in flight.
    """
    sim = Simulator()
    app = _PlaneApp(pools)
    spec = plane_spec(app.tenants, ("latency", "utilization"), batch)
    runtime = AdaptationRuntime(sim, app, spec)
    runtime.start()
    ingests = [probe.ingest for probe in runtime.probes]
    messages = len(ingests)
    assert messages == 2 * pools

    def feed(value):
        for ingest in ingests:
            ingest(value)

    now = 0.5
    sim.run(until=now)
    for _ in range(2 * BATCH):
        feed(1.0)
        now += 1.0
        sim.run(until=now)

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(batch - 1):
            feed(1.0)
        before = gc.get_count()[0]
        feed(1.0)  # the batch-th sample: every probe publishes one message
        per_message = (gc.get_count()[0] - before) / messages
        assert runtime.probe_bus.published % messages == 0
        sim.run(until=now + 2 * DELIVERY)  # delivered, folded, released

        tick_at = math.ceil(sim.now / GAUGE_PERIOD) * GAUGE_PERIOD
        sim.run(until=tick_at - DELIVERY)
        reports = runtime.gauge_bus.published
        before = gc.get_count()[0]
        while sim.peek() == tick_at:  # the ticks; reports stay in flight
            sim.step()
        per_tick = (gc.get_count()[0] - before) / messages
        assert runtime.gauge_bus.published - reports == messages
    finally:
        if was_enabled:
            gc.enable()
    return per_message, per_tick


@pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="counts CPython's gc allocations"
)
class TestAllocationBudget:
    """What a message in flight costs the cyclic collector, as a count.

    CPython starts a young collection every 700 net allocations of
    collector-counted objects (``gc.get_count()[0]``), and every object
    still alive when it runs is promoted and walked again by the older
    generations: on a 1 000-pool plane that is a fifth to a third of a
    control period.  What feeds it is the number of such objects a
    message holds *between publish and delivery* — and nothing else
    about them: not how quickly each was made.

    That is why this is a budget and not a benchmark.  A "quicker"
    constructor that adds an object — a ``__dict__`` filled in one call
    instead of four slot stores (tried once: the call was faster and the
    plane slower), a ``(fn, args)`` pair because it unpacks nicely, a
    bound method made per ``schedule`` because ``self._deliver`` reads
    better than a module function, a ``partial`` — wins the
    micro-benchmark and loses the run: it is one more allocation towards
    the next collection and one more object for every later collection
    to walk.  Before adding one, count it here.

    The budget, each with 0.2 of one-off noise over the plane's 400
    messages:

    * an unbatched per-sample message holds 2 objects — the message and
      its attribute dict; its delivery is four fields of a kernel run,
      with no ``args`` tuple of its own;
    * a probe batch message holds 4 — those two plus the ``times`` and
      ``values`` tuples (the floats in them are not tracked);
    * a gauge tick leaves 2 behind — the same two for its report; the
      re-armed tick is two fields of the next instant's run.

    A pool-period — two probe flushes, two gauge ticks — is 12.  It was
    12 before float columns too, counted differently: a batch message
    held 3 (its two arrays are untracked, its delivery's ``args`` tuple
    was not) and a tick 3 (its re-arm's ``args`` tuple).  With a pair and
    a fresh bound method per action both numbers were 5.
    """

    POOLS = 200

    @pytest.fixture(scope="class")
    def batched(self):
        return count_in_flight(self.POOLS, BATCH)

    @pytest.fixture(scope="class")
    def per_sample(self):
        return count_in_flight(self.POOLS, 1)

    def test_a_probe_batch_message(self, batched):
        per_message, _ = batched
        assert per_message <= 4.2, per_message

    def test_an_unbatched_per_sample_message(self, per_sample):
        per_message, _ = per_sample
        assert per_message <= 2.2, per_message

    def test_a_gauge_tick(self, batched, per_sample):
        for _, per_tick in (batched, per_sample):
            assert per_tick <= 2.2, per_tick

    def test_a_pool_period(self, batched):
        per_message, per_tick = batched
        assert 2 * per_message + 2 * per_tick <= 12.4, batched


# ---------------------------------------------------------------------------
# the updater's route memo


def updater_plane(components=3):
    sim = Simulator()
    system = ArchSystem("S")
    for i in range(components):
        system.new_component(f"c{i}", ["NodeT"])
    bus = EventBus(sim, name="gauge-bus")
    updater = PropertyUpdater(system, bus, property_map={"load": "load"})
    return sim, system, bus, updater


class TestUpdaterRouteMemo:
    def test_a_memoised_subject_still_looks_its_component_up(self):
        sim, system, bus, updater = updater_plane()
        bus.publish_subject("gauge.load.c1", value=1.0)
        sim.run()
        assert (updater.applied, updater.skipped) == (1, 0)
        assert "gauge.load.c1" in updater._routes
        removed = system.remove_component("c1")
        bus.publish_subject("gauge.load.c1", value=2.0)
        sim.run()
        assert (updater.applied, updater.skipped) == (1, 1)
        assert removed.get_property("load") == 1.0  # the orphan is not written
        fresh = system.new_component("c1", ["NodeT"])
        bus.publish_subject("gauge.load.c1", value=3.0)
        sim.run()
        assert (updater.applied, updater.skipped) == (2, 1)
        assert fresh.get_property("load") == 3.0
        assert removed.get_property("load") == 1.0

    @pytest.mark.parametrize(
        "subject", ["gauge.load", "gauge.load.c0.extra", "gauge.unmapped.c0"]
    )
    def test_a_subject_without_a_route_is_skipped_and_not_remembered(self, subject):
        sim, system, bus, updater = updater_plane()
        for _ in range(3):
            bus.publish_subject(subject, value=1.0)
        sim.run()
        assert (updater.applied, updater.skipped) == (0, 3)
        assert updater._routes == {}
        assert not system.component("c0").has_property("load")

    def test_the_memo_is_cleared_not_grown_past_its_cap(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.updater.ROUTE_MEMO_CAP", 8)
        sim, system, bus, updater = updater_plane(components=50)
        largest = 0
        for _ in range(2):
            for i in range(50):
                bus.publish_subject(f"gauge.load.c{i}", value=float(i))
                sim.run()
                largest = max(largest, len(updater._routes))
        assert largest == 8
        assert (updater.applied, updater.skipped) == (100, 0)
        assert system.component("c49").get_property("load") == 49.0

    @pytest.mark.parametrize("attributes", [{}, {"value": None}, {"value": "high"}])
    def test_a_report_without_a_number_is_counted_not_raised(self, attributes):
        sim, system, bus, updater = updater_plane()
        bus.publish_subject("gauge.load.c0", **attributes)
        bus.publish_subject("gauge.load.c0", value="2.5")  # a number, as text
        sim.run()  # nothing raised through Simulator.step
        assert (updater.applied, updater.skipped) == (1, 1)
        assert system.component("c0").get_property("load") == 2.5


# ---------------------------------------------------------------------------
# the door: non-finite samples


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("batch", [1, BATCH], ids=["scalar", "columnar"])
class TestNonFiniteSamples:
    """One NaN used to end the loop: ``EWMA.add`` raised inside a bus
    delivery on the scheduler's thread.  Through the other gauges it
    reached the model, where no threshold comparison is ever true of it."""

    def driver(self, batch):
        app = _PlaneApp(4)
        spec = plane_spec(app.tenants, tuple(GAUGE_KINDS), batch)
        return RealtimeDriver(app, spec, clock=FakeClock())

    def test_the_caller_hears_and_the_loop_survives(self, batch):
        driver = self.driver(batch)
        accepted = 0
        for k in range(3 * BATCH):
            for kind in GAUGE_KINDS:
                for bad in NON_FINITE:
                    with pytest.raises(ValueError, match="finite"):
                        driver.ingest(kind, "T0", bad)
                for tenant in ("T0", "T1"):
                    driver.ingest(kind, tenant, 0.5 + 0.01 * k)
                    accepted += 1
            driver.run_until(1.0 + k)  # raised on the parent: EWMA.add(nan)
        driver.run_until(4 * GAUGE_PERIOD)
        driver.stop()
        assert driver.ingested == accepted
        assert driver.stats().telemetry["samples"] == accepted
        for tenant in ("T0", "T1"):
            pool = driver.runtime.model.component(tenant)
            for kind in GAUGE_KINDS:
                assert math.isfinite(pool.get_property(kind)), (tenant, kind)
        assert all(updater.skipped == 0 for updater in driver.runtime.updaters)

    def test_the_probe_refuses_in_thread_callers_too(self, batch):
        driver = self.driver(batch)
        for probe in driver.runtime.probes:
            for bad in NON_FINITE:
                with pytest.raises(ValueError, match="finite"):
                    probe.ingest(bad)
            assert (probe.samples, probe._pending_values) == (0, [])


# ---------------------------------------------------------------------------
# the door: capture times


@pytest.mark.parametrize("batch", [1, BATCH], ids=["scalar", "columnar"])
class TestCaptureTimes:
    """An explicit ``time=`` used to be taken on trust: a descending one
    raised ``EWMA samples must be time-ordered`` inside ``run_until`` (or
    on the daemon thread), and NaN turned a gauge's average into NaN."""

    def driver(self, batch):
        app = _PlaneApp(2)
        spec = plane_spec(app.tenants, tuple(GAUGE_KINDS), batch)
        return RealtimeDriver(app, spec, clock=FakeClock())

    def test_a_non_finite_time_is_refused_at_both_doors(self, batch):
        driver = self.driver(batch)
        for bad in NON_FINITE:
            with pytest.raises(ValueError, match="capture time .* must be finite"):
                driver.ingest("utilization", "T0", 0.5, time=bad)
            for probe in driver.runtime.probes:
                with pytest.raises(ValueError, match="capture time must be finite"):
                    probe.ingest(0.5, time=bad)
                assert (probe.samples, probe.late, probe._pending_values) == (0, 0, [])
        assert driver.ingested == 0
        driver.run_until(GAUGE_PERIOD)
        assert "late" not in driver.stats().telemetry

    def test_out_of_order_and_future_times_are_dropped_and_counted(self, batch):
        driver = self.driver(batch)
        driver.run_until(10.0)
        offered = 0
        for kind in GAUGE_KINDS:
            # in order, then descending, then ahead of the clock
            for time in (4.0, 5.0, 5.0, 3.0, 2.0, 6.0, 1.0, 11.0, 1e9, 7.0):
                driver.ingest(kind, "T0", 0.5, time=time)
                offered += 1
        driver.run_until(12.0)  # raised on the parent: EWMA.add out of order
        for step in range(3 * BATCH):  # the buffer flushed: still no way back
            for kind in GAUGE_KINDS:
                driver.ingest(kind, "T0", 0.5, time=6.5)
                driver.ingest(kind, "T0", 0.5)  # unstamped samples are never late
                offered += 2
            driver.run_until(13.0 + step)
        driver.run_until(40.0)
        driver.stop()
        telemetry = driver.stats().telemetry
        assert driver.ingested == offered
        if batch == 1:  # stamped when published: the capture time is not used
            assert "late" not in telemetry and telemetry["samples"] == offered
        else:
            late = len(GAUGE_KINDS) * (5 + 3 * BATCH)
            assert telemetry["late"] == late
            assert telemetry["samples"] == offered - late
        pool = driver.runtime.model.component("T0")
        for kind in GAUGE_KINDS:
            assert pool.get_property(kind) == pytest.approx(0.5), kind

    def test_the_newest_time_survives_a_flush(self, batch):
        sim = Simulator()
        probe = IngestProbe(sim, EventBus(sim), "latency", "pool", batch=batch)
        sim.run(until=10.0)
        for time in (1.0, 2.0, 3.0, 4.0, 5.0)[: max(batch, 1)]:
            probe.ingest(0.5, time=time)
        probe.flush()
        probe.ingest(0.5, time=float(batch) - 0.5)  # older than what was flushed
        probe.ingest(0.5, time=float(batch))  # the same instant is in order
        assert probe.late == (0 if batch == 1 else 1)
