"""Batched telemetry: equivalent to per-sample telemetry, and engaged.

Two suites:

* :class:`ColumnarWindow` mean/rate/max/count must equal
  :class:`SlidingWindow` **bit for bit** — not approximately — over
  random time-ordered streams (plain ``random.Random`` with fixed seeds)
  mixing single adds, batched ``add_many``, interleaved queries at
  random horizon offsets, and clears.  No gauge uses the numpy window
  any more; the suite stays while the class does.
* Batched probe emission must produce the identical gauge report series
  to per-sample emission when flushes land before gauge ticks: same
  report times, same values, for windowed-mean, EWMA, and latest-value
  gauges.

Plus scenario-level checks that the one telemetry plane actually batches
and suppresses wakeups, and that ``telemetry_stats`` reaches
:class:`RunResult`.
"""

import random

import pytest

from repro import api
from repro.bus.bus import EventBus, FixedDelay
from repro.errors import ReproError
from repro.monitoring.gauges import EwmaGauge, LatestValueGauge, WindowedMeanGauge
from repro.monitoring.probes import CallbackProbe
from repro.sim import Simulator
from repro.util.windows import ColumnarWindow, SlidingWindow


def assert_windows_agree(scalar, columnar, now):
    """Every aggregate, compared with ``==`` (bit-for-bit, not approx)."""
    assert columnar.mean(now) == scalar.mean(now)
    assert columnar.maximum(now) == scalar.maximum(now)
    assert columnar.count(now) == scalar.count(now)
    assert columnar.rate(now) == scalar.rate(now)


class TestColumnarWindowEquivalence:
    """Randomized bit-for-bit agreement with the scalar reference."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_streams_agree_bit_for_bit(self, seed):
        rng = random.Random(2002 + seed)
        horizon = rng.choice([1.0, 5.0, 15.0])
        scalar = SlidingWindow(horizon)
        columnar = ColumnarWindow(horizon, capacity=rng.choice([8, 64]))
        t = 0.0
        for _ in range(400):
            move = rng.random()
            if move < 0.45:
                # one scalar sample
                t += rng.expovariate(2.0)
                v = rng.choice(
                    [rng.uniform(-100, 100), float(rng.randrange(-9, 10)), 0.1]
                )
                scalar.add(t, v)
                columnar.add(t, v)
            elif move < 0.75:
                # one batch, sometimes with duplicate timestamps
                n = rng.randrange(1, 12)
                times, values = [], []
                for _ in range(n):
                    t += rng.choice([0.0, rng.expovariate(4.0)])
                    times.append(t)
                    values.append(rng.uniform(-50, 50))
                scalar.add_many(times, values)
                columnar.add_many(times, values)
            elif move < 0.97:
                # interleaved query at a random offset (drives expiry;
                # queries are monotone in now, like a gauge's report loop)
                now = t + rng.uniform(0.0, 2.5 * horizon)
                assert_windows_agree(scalar, columnar, now)
                t = max(t, now - horizon)
            else:
                scalar.clear()
                columnar.clear()
                t = 0.0
            assert_windows_agree(scalar, columnar, t)
        assert_windows_agree(scalar, columnar, t + horizon / 2)
        assert_windows_agree(scalar, columnar, t + 4 * horizon)  # all expired

    def test_expiry_boundary_is_identical(self):
        # Samples exactly at the cutoff must expire identically (both
        # implementations treat ``time < now - horizon`` as expired).
        scalar, columnar = SlidingWindow(10.0), ColumnarWindow(10.0)
        for w in (scalar, columnar):
            w.add_many([0.0, 5.0, 10.0], [3.0, 2.0, 1.0])
        for now in (10.0, 15.0, 15.0000000001, 20.0, 20.0000000001, 25.0):
            assert_windows_agree(scalar, columnar, now)


def build_report_harness(gauge_cls, batch, **gauge_kwargs):
    """One probe/gauge pair wired on real buses; returns the report log.

    Probe sampling starts at t=0.5 so every 5-sample flush (t=4.5, 9.5,
    ...) lands before the gauge tick that follows it (t=5, 10, ...) —
    the timing under which batched and per-sample emission must be
    indistinguishable downstream.  Zero-delay delivery makes per-sample
    delivery times equal the batched path's capture times.
    """
    sim = Simulator()
    probe_bus = EventBus(sim, delivery=FixedDelay(0.0), name="probe-bus")
    gauge_bus = EventBus(sim, name="gauge-bus")
    state = {"step": 0}

    def fn():
        state["step"] += 1
        return (state["step"] * 7) % 23 * 0.5

    probe = CallbackProbe(sim, probe_bus, "load", "E1", fn, period=1.0, batch=batch)
    gauge = gauge_cls(
        sim, probe_bus, gauge_bus, "load", "E1", period=5.0, **gauge_kwargs
    )
    reports = []
    gauge_bus.subscribe("gauge.>", lambda m: reports.append((sim.now, m["value"])))
    gauge.activate()
    sim.schedule(0.5, probe.start)
    sim.run(until=61.0)
    return probe, reports


class TestBatchedEmissionEquivalence:
    """batch=5 emission must reproduce the per-sample report series."""

    @pytest.mark.parametrize(
        "gauge_cls,kwargs",
        [
            (WindowedMeanGauge, {"horizon": 7.0}),
            (EwmaGauge, {"tau": 12.0}),
            (LatestValueGauge, {}),
        ],
    )
    def test_report_series_identical(self, gauge_cls, kwargs):
        _, reference = build_report_harness(gauge_cls, 1, **kwargs)
        probe, batched = build_report_harness(gauge_cls, 5, **kwargs)
        assert len(reference) >= 11  # ticks at 5, 10, ..., 60 (one skipped)
        assert batched == reference  # same times, bit-for-bit same values
        assert probe.batches > 0
        assert probe.samples == probe.batches * 5

    def test_flush_on_stop_publishes_partial_batch(self):
        sim = Simulator()
        bus = EventBus(sim, delivery=FixedDelay(0.0))
        probe = CallbackProbe(
            sim, bus, "load", "E1", lambda: 1.0, period=1.0, batch=10
        )
        seen = []
        bus.subscribe("probe.>", lambda m: seen.append(m))
        probe.start()
        sim.run(until=3.5)  # 4 samples buffered, no flush yet
        assert not seen
        probe.stop()
        sim.run(until=4.0)
        assert len(seen) == 1
        # the floats the probe buffered, as tuples: no array round trip
        assert seen[0]["values"] == (1.0, 1.0, 1.0, 1.0)
        assert seen[0]["times"] == (0.0, 1.0, 2.0, 3.0)

    def test_batch_must_be_positive(self):
        sim = Simulator()
        bus = EventBus(sim)
        with pytest.raises(ValueError, match="batch"):
            CallbackProbe(sim, bus, "load", "E1", lambda: 1.0, batch=0)


class TestScenarioTelemetryStats:
    """The one telemetry plane engages end to end and reaches RunResult."""

    def test_map_reduce_batches_and_suppresses_wakeups(self):
        result = api.run(api.RunConfig.adapted("map_reduce", horizon=400.0))
        stats = result.telemetry_stats
        # one flush per gauge period: five samples a batch message
        assert stats["batches"] > 0
        assert stats["samples"] == 5 * stats["batches"]
        # the gate suppressed most steady-state reports...
        assert stats["suppressed_reports"] > stats["wakeups"] > 0
        # ...and the counters reach the JSON summary
        assert result.summary()["counters"]["telemetry"] == stats

    def test_invalid_telemetry_param_rejected(self):
        # there is no telemetry switch left to set, to any value
        config = api.RunConfig.adapted("map_reduce", horizon=50.0)
        with pytest.raises(ReproError, match=r"no parameter\(s\) \['telemetry'\]"):
            config.but(telemetry="scalar")
