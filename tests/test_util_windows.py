"""Unit tests for sliding windows, EWMA, and step functions."""

import math
import random

import pytest

from repro.util.windows import EWMA, ColumnarWindow, SlidingWindow, StepFunction


class TestSlidingWindow:
    def test_empty_mean_is_none(self):
        w = SlidingWindow(10.0)
        assert w.mean(0.0) is None

    def test_mean_of_live_samples(self):
        w = SlidingWindow(10.0)
        w.add(1.0, 2.0)
        w.add(2.0, 4.0)
        assert w.mean(3.0) == pytest.approx(3.0)

    def test_expiry(self):
        w = SlidingWindow(10.0)
        w.add(0.0, 100.0)
        w.add(9.0, 1.0)
        # at t=15 the t=0 sample is outside [5, 15]
        assert w.mean(15.0) == pytest.approx(1.0)

    def test_maximum_and_count(self):
        w = SlidingWindow(5.0)
        w.add(0.0, 1.0)
        w.add(1.0, 9.0)
        w.add(2.0, 3.0)
        assert w.maximum(2.0) == 9.0
        assert w.count(2.0) == 3
        assert w.count(7.0) == 1  # cutoff 2.0: only the t=2 sample survives

    def test_rate(self):
        w = SlidingWindow(10.0)
        for t in range(5):
            w.add(float(t), 1.0)
        assert w.rate(4.0) == pytest.approx(0.5)

    def test_rejects_time_travel(self):
        w = SlidingWindow(10.0)
        w.add(5.0, 1.0)
        with pytest.raises(ValueError):
            w.add(4.0, 1.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            SlidingWindow(0.0)

    def test_clear(self):
        w = SlidingWindow(10.0)
        w.add(0.0, 1.0)
        w.clear()
        assert w.mean(0.0) is None
        w.add(0.0, 2.0)  # after clear, earlier times are fine again
        assert w.mean(0.0) == 2.0


class TestSlidingWindowAddMany:
    """A probe batch is folded in whole or not at all."""

    TIMES = [3.0, 4.0, 5.0, 6.0, 7.0]
    VALUES = [1.0, 9.0, 4.0, 2.0, 8.0]

    @staticmethod
    def aggregates(w, now=8.0):
        return w.count(now), w.mean(now), w.maximum(now)

    def held(self):
        w = SlidingWindow(10.0)
        w.add(2.0, 5.0)
        return w

    def test_a_batch_equals_its_adds(self):
        batched, looped = self.held(), self.held()
        batched.add_many(self.TIMES, self.VALUES)
        for time, value in zip(self.TIMES, self.VALUES):
            looped.add(time, value)
        assert self.aggregates(batched) == self.aggregates(looped) == (6, 29 / 6, 9.0)
        assert batched.maximum(14.5) == looped.maximum(14.5) == 8.0  # 9.0 expired

    @pytest.mark.parametrize(
        "times,values,match",
        [
            (TIMES, [1.0, 9.0, math.nan, 2.0, 8.0], "finite"),
            (TIMES, [1.0, 9.0, math.inf, 2.0, 8.0], "finite"),
            ([3.0, 4.0, 5.0, 4.5, 7.0], VALUES, "time-ordered"),
            ([1.0, 4.0, 5.0, 6.0, 7.0], VALUES, "time-ordered"),  # before held
            (TIMES, VALUES[:4], "equal length"),
        ],
        ids=["nan-at-2", "inf-at-2", "step-back-at-3", "before-held", "lengths"],
    )
    def test_a_refused_batch_leaves_the_window_as_it_was(self, times, values, match):
        w = self.held()
        with pytest.raises(ValueError, match=match):
            w.add_many(times, values)
        assert self.aggregates(w) == (1, 5.0, 5.0)
        w.add(2.0, 6.0)  # the newest time held is still the held sample's
        assert self.aggregates(w) == (2, 5.5, 6.0)

    def test_an_empty_batch_is_a_no_op(self):
        w = self.held()
        w.add_many([], [])
        assert self.aggregates(w) == (1, 5.0, 5.0)


class TestSlidingWindowMonotonicMax:
    """The O(1) max-deque must agree with a naive rescan under expiry."""

    @staticmethod
    def _naive(samples, now, horizon):
        live = [(t, v) for t, v in samples if t >= now - horizon]
        return {
            "mean": (sum(v for _, v in live) / len(live)) if live else None,
            "maximum": max((v for _, v in live), default=None),
            "count": len(live),
            "rate": len(live) / horizon if live else 0.0,
        }

    def test_aggregates_match_naive_scan_under_expiry(self):
        import random

        rng = random.Random(2002)
        horizon = 7.0
        w = SlidingWindow(horizon)
        samples = []
        t = 0.0
        for _ in range(2000):
            t += rng.expovariate(1.0)
            v = rng.choice([rng.uniform(-50, 50), rng.randrange(-5, 6)])
            w.add(t, v)
            samples.append((t, float(v)))
            if rng.random() < 0.4:
                now = t + rng.uniform(0.0, 2 * horizon)
                want = self._naive(samples, now, horizon)
                assert w.maximum(now) == want["maximum"]
                assert w.count(now) == want["count"]
                assert w.rate(now) == pytest.approx(want["rate"])
                if want["mean"] is None:
                    assert w.mean(now) is None
                else:
                    assert w.mean(now) == pytest.approx(want["mean"])
                # queries are monotone in now; re-sync the naive model
                samples = [(st, sv) for st, sv in samples if st >= now - horizon]

    def test_maximum_handles_duplicate_values(self):
        w = SlidingWindow(10.0)
        w.add(0.0, 5.0)
        w.add(1.0, 5.0)
        w.add(2.0, 1.0)
        assert w.maximum(2.0) == 5.0
        # the t=0 duplicate expires; the t=1 one still holds the max
        assert w.maximum(10.5) == 5.0
        assert w.maximum(11.5) == 1.0

    def test_maximum_decreasing_then_increasing(self):
        w = SlidingWindow(4.0)
        for t, v in enumerate([9.0, 7.0, 5.0, 3.0, 6.0, 8.0]):
            w.add(float(t), v)
        assert w.maximum(5.0) == 8.0  # window [1, 5]: 7,5,3,6,8
        assert w.count(5.0) == 5

    def test_clear_resets_max_state(self):
        w = SlidingWindow(10.0)
        w.add(0.0, 100.0)
        w.clear()
        assert w.maximum(0.0) is None
        w.add(0.0, 2.0)
        assert w.maximum(0.0) == 2.0


class TestFiniteValidation:
    """Regression: NaN/inf samples used to poison sums and maxima forever."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sliding_window_rejects_non_finite(self, bad):
        w = SlidingWindow(10.0)
        w.add(0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            w.add(1.0, bad)
        # the rejected sample left no trace in the aggregates
        assert w.mean(1.0) == 1.0
        assert w.maximum(1.0) == 1.0
        assert w.count(1.0) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_ewma_rejects_non_finite(self, bad):
        e = EWMA(tau=10.0)
        e.add(0.0, 3.0)
        with pytest.raises(ValueError, match="finite"):
            e.add(1.0, bad)
        assert e.value == 3.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_columnar_window_rejects_non_finite(self, bad):
        w = ColumnarWindow(10.0)
        w.add(0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            w.add(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            w.add_many([1.0, 2.0], [5.0, bad])
        assert w.mean(1.0) == 1.0
        assert w.count(1.0) == 1


class TestColumnarWindow:
    """Basic contract; the randomized bit-for-bit equivalence with
    SlidingWindow lives in tests/test_columnar_telemetry.py."""

    def test_empty_mean_is_none(self):
        w = ColumnarWindow(10.0)
        assert w.mean(0.0) is None
        assert w.maximum(0.0) is None
        assert w.count(0.0) == 0
        assert w.rate(0.0) == 0.0

    def test_scalar_adds_and_expiry(self):
        w = ColumnarWindow(10.0)
        w.add(0.0, 100.0)
        w.add(9.0, 1.0)
        assert w.mean(9.0) == pytest.approx(50.5)
        assert w.mean(15.0) == pytest.approx(1.0)  # t=0 expired
        assert w.maximum(15.0) == 1.0

    def test_add_many_matches_loop(self):
        w = ColumnarWindow(5.0)
        w.add_many([0.0, 1.0, 2.0], [1.0, 9.0, 3.0])
        assert w.maximum(2.0) == 9.0
        assert w.count(2.0) == 3
        assert w.rate(2.0) == pytest.approx(0.6)

    def test_add_many_validates_shape_and_order(self):
        w = ColumnarWindow(5.0)
        with pytest.raises(ValueError, match="equally long"):
            w.add_many([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="time-ordered"):
            w.add_many([1.0, 0.5], [1.0, 2.0])
        w.add(2.0, 1.0)
        with pytest.raises(ValueError, match="time-ordered"):
            w.add_many([1.0, 3.0], [1.0, 2.0])
        w.add_many([], [])  # empty batch is a no-op
        assert w.count(2.0) == 1

    def test_ring_compaction_under_growth(self):
        w = ColumnarWindow(4.0, capacity=8)
        for t in range(200):
            w.add(float(t), float(t % 13))
        # live window is [196, 200]; the ring compacted many times
        # values for t in 196..199: 196%13=1, 197%13=2, 198%13=3, 199%13=4
        assert w.count(200.0) == 4
        assert w.maximum(200.0) == 4.0

    def test_clear(self):
        w = ColumnarWindow(10.0)
        w.add_many([0.0, 1.0], [5.0, 6.0])
        w.clear()
        assert w.mean(1.0) is None
        w.add(0.0, 2.0)  # earlier times fine again after clear
        assert w.mean(0.0) == 2.0

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            ColumnarWindow(0.0)


class TestEWMA:
    def test_first_sample_sets_value(self):
        e = EWMA(tau=10.0)
        assert e.value is None
        e.add(0.0, 5.0)
        assert e.value == 5.0

    def test_converges_toward_new_level(self):
        e = EWMA(tau=1.0)
        e.add(0.0, 0.0)
        e.add(10.0, 10.0)  # 10 time constants later: essentially 10
        assert e.value == pytest.approx(10.0, abs=1e-3)

    def test_decay_weight(self):
        e = EWMA(tau=10.0)
        e.add(0.0, 0.0)
        v = e.add(10.0, 1.0)  # one tau: weight 1 - e^-1
        assert v == pytest.approx(1 - math.exp(-1))

    def test_time_travel_rejected(self):
        e = EWMA(tau=1.0)
        e.add(5.0, 1.0)
        with pytest.raises(ValueError):
            e.add(4.0, 1.0)


def _ewma_state(e):
    """An EWMA's value and time, exactly (``float.hex`` tells -0.0 from 0.0)."""
    return tuple(None if x is None else float(x).hex() for x in (e._value, e._time))


def _fold(e, times, values, batched):
    """Fold a batch one way; the error it raised (type and text) or None."""
    try:
        if batched:
            e.add_many(times, values)
        else:
            for time, value in zip(times, values):
                e.add(time, value)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


class TestEwmaAddMany:
    """``add_many`` is the ``add`` loop in one call, bit for bit — also
    where it raises."""

    @staticmethod
    def _random_batches(rng, count):
        """Batches of 1-8 samples: equal times, short steps and long gaps."""
        t = rng.uniform(0.0, 5.0)
        for _ in range(count):
            times, values = [], []
            for _ in range(rng.randint(1, 8)):
                step = rng.choice([0.0, rng.uniform(0.0, 2.0), rng.uniform(50.0, 5e3)])
                t += step if rng.random() < 0.7 else 0.0
                times.append(t)
                values.append(rng.choice([rng.uniform(-10.0, 10.0), 0.0, -0.0, 1e300]))
            yield times, values

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("initial", [None, 3.25])
    def test_random_batches_equal_the_add_loop(self, seed, initial):
        rng = random.Random(seed)
        tau = rng.choice([0.5, 10.0, 60.0])
        batched, looped = EWMA(tau, initial), EWMA(tau, initial)
        for times, values in self._random_batches(rng, 40):
            assert _fold(batched, times, values, True) is None
            assert _fold(looped, times, values, False) is None
            assert _ewma_state(batched) == _ewma_state(looped)
        assert batched.value is not None

    def test_first_sample_into_an_empty_ewma(self):
        batched, looped = EWMA(10.0), EWMA(10.0)
        assert batched.add_many([4.0], [2.5]) == 2.5
        looped.add(4.0, 2.5)
        assert _ewma_state(batched) == _ewma_state(looped) == (
            (2.5).hex(), (4.0).hex())

    def test_an_empty_batch_changes_nothing(self):
        e = EWMA(10.0)
        assert e.add_many([], []) is None
        e.add(1.0, 2.0)
        assert e.add_many((), ()) == 2.0
        assert _ewma_state(e) == ((2.0).hex(), (1.0).hex())

    def test_equal_times_and_a_long_gap(self):
        times = [1.0, 1.0, 1.0, 1e6, 1e6]
        values = [1.0, 5.0, -3.0, 7.0, 2.0]
        batched, looped = EWMA(60.0), EWMA(60.0)
        batched.add_many(times, values)
        _fold(looped, times, values, False)
        assert _ewma_state(batched) == _ewma_state(looped)
        # the gap forgets what came before it; a repeated time weighs nothing
        assert batched.value == pytest.approx(7.0)

    @pytest.mark.parametrize(
        "times,values",
        [
            ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.nan, 4.0]),
            ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.inf, 4.0]),
            ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, -math.inf]),
            ([1.0, 2.0, 3.0, 4.0], [math.nan, 2.0, 3.0, 4.0]),
            ([1.0, 2.0, 1.5, 4.0], [1.0, 2.0, 3.0, 4.0]),
        ],
        ids=["nan-mid", "inf-mid", "neg-inf-last", "nan-first", "step-back"],
    )
    @pytest.mark.parametrize("held", [None, 1.0])
    def test_a_refused_sample_raises_and_leaves_the_loops_state(
        self, times, values, held
    ):
        batched, looped = EWMA(5.0), EWMA(5.0)
        if held is not None:
            batched.add(held, 9.0)
            looped.add(held, 9.0)
        error = _fold(batched, times, values, True)
        assert error is not None
        assert error == _fold(looped, times, values, False)
        assert _ewma_state(batched) == _ewma_state(looped)
        # both go on from the same state
        assert batched.add(10.0, 1.0) == looped.add(10.0, 1.0)

    def test_a_batch_older_than_the_held_time_is_refused_whole(self):
        batched, looped = EWMA(5.0), EWMA(5.0)
        for e in (batched, looped):
            e.add(3.0, 9.0)
        error = _fold(batched, [0.5, 4.0], [1.0, 2.0], True)
        assert error == _fold(looped, [0.5, 4.0], [1.0, 2.0], False)
        assert error == (ValueError, "EWMA samples must be time-ordered")
        assert _ewma_state(batched) == _ewma_state(looped) == (
            (9.0).hex(), (3.0).hex())

    def test_unequal_lengths_are_refused_before_any_fold(self):
        e = EWMA(5.0)
        with pytest.raises(ValueError, match="equal length"):
            e.add_many([1.0, 2.0], [1.0])
        assert _ewma_state(e) == (None, None)


class TestStepFunction:
    def test_basic_steps(self):
        f = StepFunction([(0.0, 1.0), (10.0, 2.0)], default=0.0)
        assert f(-1.0) == 0.0
        assert f(0.0) == 1.0
        assert f(9.999) == 1.0
        assert f(10.0) == 2.0
        assert f(100.0) == 2.0

    def test_unordered_breakpoints_sorted(self):
        f = StepFunction([(10.0, 2.0), (0.0, 1.0)])
        assert f(5.0) == 1.0

    def test_duplicate_times_rejected(self):
        with pytest.raises(ValueError):
            StepFunction([(1.0, 1.0), (1.0, 2.0)])

    def test_change_times_windowing(self):
        f = StepFunction([(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)])
        assert f.change_times(0.0, 20.0) == [10.0, 20.0]
        assert f.change_times(10.0, 15.0) == []
