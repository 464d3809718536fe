"""Time-windowed statistics used by gauges and workload schedules.

``SlidingWindow`` backs every windowed gauge: the paper's gauges report
*average* behaviour over a recent horizon, which is what introduces the
detection lag visible in Figures 11-13.  It takes samples one at a time
or a probe batch at a time (``add_many``, all or nothing).  Its numpy
twin below is unused and not exported (see its docstring).
``StepFunction`` expresses the Figure 7 stepping schedules for bandwidth
competition and request load.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SlidingWindow", "EWMA", "StepFunction"]


class SlidingWindow:
    """Average of timestamped samples within the trailing ``horizon`` seconds.

    Samples must be added with non-decreasing timestamps (simulation time is
    monotone).  ``mean(now)`` first expires samples older than
    ``now - horizon``.

    Aggregates are O(1) per query: the running sum backs ``mean``/``rate``,
    and a monotonic max-deque backs ``maximum`` — every sample is pushed and
    popped at most once, so the amortized cost per ``add`` is constant even
    though gauges query these every report period.

    This is the only window the gauges use, pinned bit for bit by the
    serial fingerprints.
    """

    def __init__(self, horizon: float):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.horizon = float(horizon)
        self._samples: Deque[Tuple[float, float]] = deque()
        # Monotonically non-increasing values; front holds the window max.
        self._maxq: Deque[Tuple[float, float]] = deque()
        self._sum = 0.0
        self._last_time: Optional[float] = None

    def add(self, time: float, value: float) -> None:
        """Record ``value`` observed at simulation ``time``."""
        if self._last_time is not None and time < self._last_time:
            raise ValueError(
                f"samples must be time-ordered: got {time} after {self._last_time}"
            )
        value = float(value)
        if not math.isfinite(value):
            # A NaN/inf sample would poison the running sum (and a NaN the
            # max-deque comparisons) for the rest of the window's life.
            raise ValueError(f"sample value must be finite, got {value}")
        self._last_time = time
        self._samples.append((time, value))
        self._sum += value
        maxq = self._maxq
        while maxq and maxq[-1][1] <= value:
            maxq.pop()
        maxq.append((time, value))

    def add_many(self, times: Sequence[float], values: Sequence[float]) -> None:
        """Record a batch of samples, all or nothing.

        The lengths, every value's finiteness and the time order (from
        the newest sample already held) are checked before any sample is
        folded in, so a refused batch leaves the window as it was.  The
        fold is ``add``'s, sample by sample: the aggregates are the same
        bit for bit.
        """
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        batch = list(zip(times, map(float, values)))
        last = self._last_time
        for time, value in batch:
            if last is not None and time < last:
                raise ValueError(
                    f"samples must be time-ordered: got {time} after {last}"
                )
            if not math.isfinite(value):
                raise ValueError(f"sample value must be finite, got {value}")
            last = time
        self._last_time = last
        self._samples.extend(batch)
        maxq = self._maxq
        total = self._sum
        for sample in batch:
            value = sample[1]
            total += value
            while maxq and maxq[-1][1] <= value:
                maxq.pop()
            maxq.append(sample)
        self._sum = total

    def _expire(self, now: float) -> None:
        cutoff = now - self.horizon
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            _, v = samples.popleft()
            self._sum -= v
        maxq = self._maxq
        while maxq and maxq[0][0] < cutoff:
            maxq.popleft()

    def mean(self, now: float) -> Optional[float]:
        """Mean of samples in ``[now - horizon, now]``; None when empty."""
        self._expire(now)
        if not self._samples:
            return None
        return self._sum / len(self._samples)

    def maximum(self, now: float) -> Optional[float]:
        """Largest live sample; O(1) via the monotonic deque."""
        self._expire(now)
        if not self._samples:
            return None
        return self._maxq[0][1]

    def count(self, now: float) -> int:
        """Number of live samples in the window."""
        self._expire(now)
        return len(self._samples)

    def rate(self, now: float) -> float:
        """Samples per second over the window (arrival-rate estimator)."""
        self._expire(now)
        if not self._samples:
            return 0.0
        return len(self._samples) / self.horizon

    def clear(self) -> None:
        self._samples.clear()
        self._maxq.clear()
        self._sum = 0.0
        self._last_time = None


def _accumulate_into(total: float, values: np.ndarray, ufunc) -> float:
    """Fold ``values`` into ``total`` with strictly sequential IEEE ops.

    ``np.add.accumulate``/``np.subtract.accumulate`` compute
    ``out[i] = out[i-1] op in[i]`` left to right (pairwise summation only
    applies to ``reduce``), so seeding the accumulator as element 0
    reproduces the scalar ``+=``/``-=`` loop bit for bit in float64.
    """
    if not values.size:
        return total
    acc = np.empty(values.size + 1, dtype=np.float64)
    acc[0] = total
    acc[1:] = values
    return float(ufunc.accumulate(acc)[-1])


class ColumnarWindow:
    """Columnar twin of :class:`SlidingWindow`: numpy (time, value) columns.

    No gauge uses it: at the probe batches the package ships (5 samples)
    the scalar window folds a sample several times faster.  It stays only
    because the whole-plane benchmark's tracer
    (``benchmarks/e2e/trace.py``) resolves its methods by name and the
    harness's smoke test wants every entry point found; drop those rows
    there, then delete this class.

    Samples live in flat float64 arrays managed as a ring: expiry advances
    ``_start``, appends advance ``_end``, and the arrays are compacted (and
    doubled when genuinely full) once the tail runs out of room — amortized
    O(1) per sample.  ``add_many`` ingests a whole batch in a handful of
    vectorized operations.

    Aggregates are **bit-for-bit identical** to the scalar reference:

    * the running sum is maintained via :func:`_accumulate_into`, the exact
      operation sequence of the scalar ``+=`` on add and ``-=`` on expiry;
    * ``maximum`` uses two segments — the front carries suffix maxima (one
      ``np.maximum.accumulate`` over the reversed slice each time the
      segments flip), the back a running max; max is exact regardless of
      grouping, and both segments pay amortized O(1) per sample.

    ``tests/test_columnar_telemetry.py`` pins the equivalence over
    randomized streams.
    """

    def __init__(self, horizon: float, capacity: int = 64):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.horizon = float(horizon)
        capacity = max(int(capacity), 8)
        self._times = np.empty(capacity, dtype=np.float64)
        self._values = np.empty(capacity, dtype=np.float64)
        # Suffix maxima over the front segment [_start, _mid); the back
        # segment [_mid, _end) is covered by the running ``_back_max``.
        self._suffix = np.empty(capacity, dtype=np.float64)
        self._start = 0
        self._mid = 0
        self._end = 0
        self._sum = 0.0
        self._back_max = -math.inf
        self._last_time: Optional[float] = None

    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` appends at ``_end`` (compact/regrow)."""
        if self._end + extra <= self._times.shape[0]:
            return
        live = self._end - self._start
        capacity = self._times.shape[0]
        while capacity < live + extra:
            capacity *= 2
        for name in ("_times", "_values", "_suffix"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=np.float64)
            fresh[:live] = old[self._start : self._end]
            setattr(self, name, fresh)
        self._mid -= self._start
        self._end = live
        self._start = 0

    def add(self, time: float, value: float) -> None:
        """Record one ``value`` observed at simulation ``time``."""
        if self._last_time is not None and time < self._last_time:
            raise ValueError(
                f"samples must be time-ordered: got {time} after {self._last_time}"
            )
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"sample value must be finite, got {value}")
        self._last_time = time
        self._reserve(1)
        end = self._end
        self._times[end] = time
        self._values[end] = value
        self._end = end + 1
        self._sum += value
        if value > self._back_max:
            self._back_max = value

    def add_many(self, times, values) -> None:
        """Ingest a whole time-ordered batch of samples, vectorized."""
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-D and equally long")
        if not times.size:
            return
        if not np.isfinite(values).all():
            raise ValueError("sample values must be finite")
        if times.size > 1 and bool(np.any(times[1:] < times[:-1])):
            raise ValueError("batch samples must be time-ordered")
        first = float(times[0])
        if self._last_time is not None and first < self._last_time:
            raise ValueError(
                f"samples must be time-ordered: got {first} after {self._last_time}"
            )
        self._last_time = float(times[-1])
        count = times.size
        self._reserve(count)
        end = self._end
        self._times[end : end + count] = times
        self._values[end : end + count] = values
        self._end = end + count
        self._sum = _accumulate_into(self._sum, values, np.add)
        batch_max = float(values.max())
        if batch_max > self._back_max:
            self._back_max = batch_max

    def _expire(self, now: float) -> None:
        cutoff = now - self.horizon
        start, end = self._start, self._end
        if start == end or self._times[start] >= cutoff:
            return
        expired = int(np.searchsorted(self._times[start:end], cutoff, side="left"))
        self._sum = _accumulate_into(
            self._sum, self._values[start : start + expired], np.subtract
        )
        start += expired
        self._start = start
        if start >= self._mid:
            # Front segment exhausted: the back becomes the new front.
            if start < end:
                self._suffix[start:end] = np.maximum.accumulate(
                    self._values[start:end][::-1]
                )[::-1]
            self._mid = end
            self._back_max = -math.inf

    def mean(self, now: float) -> Optional[float]:
        """Mean of samples in ``[now - horizon, now]``; None when empty."""
        self._expire(now)
        count = self._end - self._start
        if not count:
            return None
        return self._sum / count

    def maximum(self, now: float) -> Optional[float]:
        """Largest live sample; amortized O(1) via the two segments."""
        self._expire(now)
        if self._start == self._end:
            return None
        best = self._back_max
        if self._start < self._mid and self._suffix[self._start] > best:
            best = self._suffix[self._start]
        return float(best)

    def count(self, now: float) -> int:
        """Number of live samples in the window."""
        self._expire(now)
        return self._end - self._start

    def rate(self, now: float) -> float:
        """Samples per second over the window (arrival-rate estimator)."""
        self._expire(now)
        count = self._end - self._start
        if not count:
            return 0.0
        return count / self.horizon

    def clear(self) -> None:
        self._start = self._mid = self._end = 0
        self._sum = 0.0
        self._back_max = -math.inf
        self._last_time = None


class EWMA:
    """Exponentially-weighted moving average with a time constant.

    The weight of an old observation decays as ``exp(-dt / tau)``; this is
    the continuous-time analogue of the classic discrete EWMA and is robust
    to irregular sampling.
    """

    def __init__(self, tau: float, initial: Optional[float] = None):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = float(tau)
        self._value: Optional[float] = initial
        self._time: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        return self._value

    def add(self, time: float, value: float) -> float:
        """Fold in an observation; returns the updated average."""
        value = float(value)
        if not math.isfinite(value):
            # One NaN/inf sample would contaminate every later average.
            raise ValueError(f"sample value must be finite, got {value}")
        if self._value is None or self._time is None:
            self._value = value
        else:
            if time < self._time:
                raise ValueError("EWMA samples must be time-ordered")
            alpha = 1.0 - math.exp(-(time - self._time) / self.tau)
            self._value += alpha * (value - self._value)
        self._time = time
        return self._value


class StepFunction:
    """Right-continuous piecewise-constant function of time.

    Built from ``(time, value)`` breakpoints: the function takes ``value``
    from ``time`` (inclusive) until the next breakpoint.  Times before the
    first breakpoint return ``default``.

    This is exactly the shape of the paper's Figure 7 generators.
    """

    def __init__(
        self,
        breakpoints: Iterable[Tuple[float, float]],
        default: float = 0.0,
    ):
        pts: List[Tuple[float, float]] = sorted(
            (float(t), float(v)) for t, v in breakpoints
        )
        times = [t for t, _ in pts]
        if len(set(times)) != len(times):
            raise ValueError("StepFunction breakpoints must have distinct times")
        self._times: List[float] = times
        self._values: List[float] = [v for _, v in pts]
        self.default = float(default)

    def __call__(self, t: float) -> float:
        i = bisect_right(self._times, t)
        if i == 0:
            return self.default
        return self._values[i - 1]

    @property
    def breakpoints(self) -> Sequence[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def change_times(self, start: float, end: float) -> List[float]:
        """Breakpoint times within ``(start, end]`` (for event scheduling)."""
        return [t for t in self._times if start < t <= end]
