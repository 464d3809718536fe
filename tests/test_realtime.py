"""The wall-clock execution plane (X10).

Everything here runs on :class:`FakeClock` unless a test is explicitly
about real pacing, so the suite is deterministic and fast: the realtime
scheduler's waits advance logical time instantly, which means the exact
event schedule a wall clock would execute runs repeatably.  The
determinism suite pins the plane's contract — same spec + same scripted
telemetry => identical repair history — and the driver tests cover the
ingest seam end to end (external sample -> bus -> gauge -> model ->
committed repair -> effector callback).
"""

import threading

import pytest

from repro.lint.api import lint_runtime
from repro.monitoring.probes import IngestProbe
from repro.realtime import FakeClock, RealtimeDriver, RealtimeScheduler, WallClock
from repro.realtime.demo import (
    LivePoolManagedApplication,
    _percentile,
    build_live_pool_spec,
)
from repro.sim.kernel import Simulator
from repro.bus.bus import EventBus


# ---------------------------------------------------------------------------
# clocks


class TestFakeClock:
    def test_starts_at_zero_and_advances(self):
        clock = FakeClock()
        assert clock.elapsed() == 0.0
        clock.advance(1.5)
        assert clock.elapsed() == 1.5

    def test_wait_advances_instantly_and_counts(self):
        clock = FakeClock()
        assert clock.wait(0.25, None) is False
        assert clock.elapsed() == 0.25
        assert clock.waits == 1

    def test_cannot_advance_backwards(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_wall_clock_monotonic_from_origin(self):
        clock = WallClock()
        first = clock.elapsed()
        clock.wait(0.01, None)
        assert clock.elapsed() >= first


# ---------------------------------------------------------------------------
# scheduler


class TestRealtimeScheduler:
    def test_runs_events_in_order_and_lands_on_until(self):
        sched = RealtimeScheduler(FakeClock())
        seen = []
        sched.schedule(1.0, seen.append, "a")
        sched.schedule(2.5, seen.append, "b")
        sched.schedule(9.0, seen.append, "never")  # beyond the horizon
        sched.run(until=3.0)
        assert seen == ["a", "b"]
        assert sched.now == 3.0
        assert sched.executed == 2

    def test_event_exactly_at_until_still_executes(self):
        sched = RealtimeScheduler(FakeClock())
        seen = []
        sched.schedule(2.0, seen.append, "edge")
        sched.run(until=2.0)
        assert seen == ["edge"]

    def test_injected_callbacks_run_in_injection_order(self):
        sched = RealtimeScheduler(FakeClock())
        seen = []
        sched.call_soon_threadsafe(seen.append, 1)
        sched.call_soon_threadsafe(seen.append, 2)
        sched.call_soon_threadsafe(seen.append, 3)
        sched.run(until=1.0)
        assert seen == [1, 2, 3]

    def test_injection_stamped_at_clock_time_not_zero(self):
        clock = FakeClock()
        sched = RealtimeScheduler(clock)
        stamped = []
        clock.advance(4.0)
        sched.call_soon_threadsafe(lambda: stamped.append(sched.now))
        sched.run(until=5.0)
        assert stamped == [4.0]

    def test_timeline_matches_simulated_kernel(self):
        # the same schedule, drained by the sim kernel and paced by the
        # realtime scheduler on a fake clock, executes identically
        def script(sim, log):
            sim.schedule(0.5, log.append, ("x", 0.5))
            sim.schedule(0.5, log.append, ("y", 0.5))  # tie: schedule order
            sim.schedule(1.75, log.append, ("z", 1.75))

        sim_log, rt_log = [], []
        sim = Simulator()
        script(sim, sim_log)
        sim.run(until=2.0)
        sched = RealtimeScheduler(FakeClock())
        script(sched, rt_log)
        sched.run(until=2.0)
        assert rt_log == sim_log
        assert sched.now == sim.now == 2.0

    def test_stop_ends_a_service_mode_run(self):
        sched = RealtimeScheduler(WallClock())
        done = []
        thread = threading.Thread(target=lambda: done.append(sched.run()))
        thread.start()
        sched.call_soon_threadsafe(lambda: None)
        sched.stop()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert sched.stopped

    def test_run_is_not_reentrant(self):
        sched = RealtimeScheduler(FakeClock())
        sched.schedule(0.1, sched.run)
        with pytest.raises(RuntimeError):
            sched.run(until=1.0)

    def test_a_flood_signals_the_loop_once_per_drain(self):
        # count-based: what an injection costs the producer must not
        # depend on how the two threads happen to interleave, so it
        # touches the wakeup event's lock only when the loop may be
        # asleep — once per drain, not once per sample
        class CountingEvent(threading.Event):
            sets = 0

            def set(self):
                self.sets += 1
                super().set()

        sched = RealtimeScheduler(FakeClock())
        sched._wakeup = CountingEvent()
        seen = []
        for i in range(1000):
            sched.call_soon_threadsafe(seen.append, i)
        assert sched._wakeup.sets == 1
        sched.run(until=1.0)
        assert seen == list(range(1000))
        sched.call_soon_threadsafe(seen.append, 1000)
        sched.call_soon_threadsafe(seen.append, 1001)
        assert sched._wakeup.sets == 2
        sched.run(until=2.0)
        assert seen == list(range(1002))

    def test_concurrent_producers_lose_and_reorder_nothing(self):
        # four threads inject into a running wall-clock service: every
        # callback runs exactly once, each producer's in its own order,
        # and the loop is never left asleep with work queued
        producers, each = 4, 5000
        sched = RealtimeScheduler(WallClock())
        seen = []
        loop = threading.Thread(target=sched.run)
        loop.start()

        def produce(p):
            for i in range(each):
                sched.call_soon_threadsafe(seen.append, (p, i))

        threads = [
            threading.Thread(target=produce, args=(p,)) for p in range(producers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        drained = threading.Event()
        sched.call_soon_threadsafe(drained.set)
        assert drained.wait(timeout=10.0)
        sched.stop()
        loop.join(timeout=5.0)
        assert not loop.is_alive()
        assert len(seen) == producers * each
        for p in range(producers):
            assert [i for q, i in seen if q == p] == list(range(each))
        assert sched.executed == producers * each + 1


# ---------------------------------------------------------------------------
# the ingest probe (the bus-ingested telemetry path)


def _bus_with_log(sim):
    bus = EventBus(sim)
    log = []
    bus.subscribe("probe.>", lambda msg: log.append(msg))
    return bus, log


class TestIngestProbe:
    def test_unbatched_sample_publishes_immediately(self):
        sim = Simulator()
        bus, log = _bus_with_log(sim)
        probe = IngestProbe(sim, bus, "latency", "pool")
        probe.ingest(0.25)
        sim.run(until=1.0)
        assert len(log) == 1
        assert log[0]["value"] == 0.25
        assert probe.samples == 1

    def test_batched_samples_flush_as_one_columnar_message(self):
        sim = Simulator()
        bus, log = _bus_with_log(sim)
        probe = IngestProbe(sim, bus, "latency", "pool", batch=3)
        probe.ingest(0.1)
        probe.ingest(0.2)
        sim.run(until=1.0)
        assert log == []  # still buffered
        probe.ingest(0.3)
        sim.run(until=2.0)
        assert len(log) == 1
        assert list(log[0]["values"]) == [0.1, 0.2, 0.3]
        assert probe.batches == 1

    def test_stop_flushes_the_buffered_tail(self):
        sim = Simulator()
        bus, log = _bus_with_log(sim)
        probe = IngestProbe(sim, bus, "latency", "pool", batch=10)
        probe.ingest(0.5)
        probe.stop()
        sim.run(until=1.0)
        assert len(log) == 1

    def test_explicit_capture_time_is_honored(self):
        sim = Simulator()
        bus, log = _bus_with_log(sim)
        probe = IngestProbe(sim, bus, "latency", "pool", batch=2)
        sim.run(until=5.0)  # a capture time ahead of the clock would be dropped
        probe.ingest(0.1, time=3.0)
        probe.ingest(0.2, time=4.0)
        sim.run(until=6.0)
        assert list(log[0]["times"]) == [3.0, 4.0]

    def test_rejects_bad_batch(self):
        sim = Simulator()
        bus, _ = _bus_with_log(sim)
        with pytest.raises(ValueError):
            IngestProbe(sim, bus, "latency", "pool", batch=0)


# ---------------------------------------------------------------------------
# driver + determinism suite


class ScriptedPoolApp:
    """A stand-in live application whose metrics are set by the script.

    Implements exactly the surface ``build_live_pool_spec`` samples and
    the translator actuates: ``queue_depth``, ``utilization()``,
    ``pool_size``, ``request_resize``.  Resizes apply synchronously and
    are logged, so tests can assert the effector callback fired.
    """

    host = "scripted"
    port = 0

    def __init__(self, pool_size=2):
        self.pool_size = pool_size
        self.queue_depth = 0.0
        self.busy = 0.0
        self.resizes = []

    def utilization(self):
        if self.pool_size <= 0:
            return 0.0
        return min(1.0, self.busy / self.pool_size)

    def request_resize(self, size):
        self.resizes.append(int(size))
        self.pool_size = int(size)


def _scripted_driver(horizon=12.0):
    """One scripted episode: burst at t=1, calm at t=6, latency pushes."""
    clock = FakeClock()
    app = ScriptedPoolApp(pool_size=2)
    driver = RealtimeDriver(
        LivePoolManagedApplication(app, min_workers=2),
        build_live_pool_spec(app, max_workers=8),
        clock=clock,
    )
    sched = driver.scheduler

    def burst():
        app.queue_depth = 40.0
        app.busy = float(app.pool_size)

    def calm():
        app.queue_depth = 0.0
        app.busy = 1.0

    sched.schedule_at(1.0, burst)
    sched.schedule_at(6.0, calm)
    for i in range(20):  # external telemetry lands through the ingest seam
        sched.schedule_at(
            0.5 + 0.5 * i,
            lambda i=i: driver.ingest("latency", "pool", 0.05 + 0.01 * i),
        )
    driver.run_until(horizon)
    return driver, app


def _history_fingerprint(driver):
    return [
        (
            round(record.started, 6),
            record.strategy,
            record.invariant,
            record.committed,
            record.tactic_applied,
            record.abort_reason,
            tuple(
                (intent.op, tuple(sorted(intent.args.items())))
                for intent in record.intents
            ),
        )
        for record in driver.history
    ]


class TestRealtimeDriver:
    def test_scripted_burst_grows_then_shrinks_the_pool(self):
        driver, app = _scripted_driver()
        fingerprint = _history_fingerprint(driver)
        assert fingerprint, "the scripted burst must trigger repairs"
        ops = [
            intent.op
            for record in driver.history.committed
            for intent in record.intents
        ]
        assert "addWorkers" in ops
        assert "removeWorkers" in ops
        assert app.resizes, "committed repairs must actuate into the app"
        assert max(app.resizes) > 2
        assert app.pool_size < max(app.resizes)

    def test_same_script_same_clock_identical_history(self):
        first, _ = _scripted_driver()
        second, _ = _scripted_driver()
        assert _history_fingerprint(first) == _history_fingerprint(second)
        first_stats = first.stats().to_dict()
        second_stats = second.stats().to_dict()
        assert first_stats == second_stats

    def test_ingested_samples_flow_to_the_latency_gauge(self):
        driver, _ = _scripted_driver()
        assert driver.ingested == 20
        stats = driver.stats()
        assert stats.telemetry.get("samples", 0) > 0
        assert stats.bus.get("gauge_published", 0) > 0
        latency = driver.runtime.model.component("pool").get_property("latency")
        assert latency > 0.0

    def test_ingest_rejects_unknown_probe(self):
        clock = FakeClock()
        app = ScriptedPoolApp()
        driver = RealtimeDriver(
            LivePoolManagedApplication(app, min_workers=2),
            build_live_pool_spec(app),
            clock=clock,
        )
        with pytest.raises(KeyError):
            driver.ingest("nope", "pool", 1.0)
        assert ("latency", "pool") in driver.ingest_targets()

    def test_run_until_leaves_logical_time_at_horizon(self):
        driver, _ = _scripted_driver(horizon=12.0)
        assert driver.scheduler.now == 12.0

    def test_stop_is_safe_after_run_until(self):
        driver, _ = _scripted_driver()
        driver.stop()  # no thread was ever started; must not raise
        driver.stop()  # and it is idempotent

    def test_stop_runs_the_samples_the_loop_never_took_in(self):
        """A stop ends the loop without a last drain: what ``ingest``
        accepted after the loop's last pass runs in ``stop()`` itself."""
        app = ScriptedPoolApp()
        driver = RealtimeDriver(
            LivePoolManagedApplication(app, min_workers=2),
            build_live_pool_spec(app),
            clock=FakeClock(),
        )
        driver.run_until(1.0)
        before = driver.stats().telemetry.get("samples", 0)
        for _ in range(7):
            driver.ingest("latency", "pool", 1.0)
        driver.stop()
        telemetry = driver.stats().telemetry
        assert driver.ingested == 7
        assert telemetry["samples"] - before + telemetry.get("late", 0) == 7
        assert not driver.scheduler._injected and driver.dropped == 0
        with pytest.raises(RuntimeError):  # nothing would run it now
            driver.ingest("latency", "pool", 1.0)
        assert driver.ingested == 7 and not driver.scheduler._injected

    def test_stop_counts_what_a_stuck_loop_left_queued(self):
        app = ScriptedPoolApp()
        driver = RealtimeDriver(
            LivePoolManagedApplication(app, min_workers=2),
            build_live_pool_spec(app),
        )
        inside, release = threading.Event(), threading.Event()

        def stuck():
            inside.set()
            release.wait(10.0)

        driver.start()
        thread = driver._thread
        driver.scheduler.call_soon_threadsafe(stuck)
        assert inside.wait(10.0)
        for _ in range(7):
            driver.ingest("latency", "pool", 1.0)
        driver.stop(join_timeout=0.05)
        release.set()
        thread.join(10.0)
        assert not thread.is_alive()
        assert driver.dropped == 7 and not driver.scheduler._injected

    def test_live_demo_lints_clean(self):
        """``repro lint`` sees registered scenarios only; this is the demo's.

        A sizing-script binding the demo forgets (``growStep``) or an
        operator whose intent has no row in the demo's table shows here.
        """
        app = ScriptedPoolApp()
        driver = RealtimeDriver(
            LivePoolManagedApplication(app, min_workers=2),
            build_live_pool_spec(app),
            clock=FakeClock(),
        )
        report = lint_runtime(driver.runtime, "live-demo")
        assert report.findings == []


def test_live_demo_percentiles_pick_the_nearest_rank():
    """The demo reports p50 / p95 of the measured latencies; a phase that
    recorded none reads 0.0 rather than failing the report."""
    assert _percentile([], 0.95) == 0.0
    assert _percentile([3.0, 1.0, 2.0], 0.50) == 2.0
    assert _percentile([float(v) for v in range(1, 21)], 0.95) == 19.0
