"""Time-series containers for experiment metrics."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["TimeSeries"]


class TimeSeries:
    """Append-only (time, value) series with analysis helpers.

    ``None`` values (no data yet, e.g. an empty latency window) are stored
    as NaN and ignored by the statistics.
    """

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time: float, value: Optional[float]) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(f"{self.name}: samples must be time-ordered")
        self._times.append(float(time))
        self._values.append(float("nan") if value is None else float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values)

    # -- slicing ------------------------------------------------------------
    def _mask(self, start: Optional[float], end: Optional[float]) -> np.ndarray:
        t = self.times
        mask = ~np.isnan(self.values)
        if start is not None:
            mask &= t >= start
        if end is not None:
            mask &= t <= end
        return mask

    def window(self, start: Optional[float] = None, end: Optional[float] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        mask = self._mask(start, end)
        return self.times[mask], self.values[mask]

    # -- statistics ------------------------------------------------------------
    def fraction_above(self, threshold: float, start: Optional[float] = None,
                       end: Optional[float] = None) -> float:
        """Fraction of (non-NaN) samples strictly above ``threshold``."""
        _, v = self.window(start, end)
        if v.size == 0:
            return 0.0
        return float(np.mean(v > threshold))

    def first_crossing(self, threshold: float, after: float = 0.0
                       ) -> Optional[float]:
        """First sample time with value > threshold at/after ``after``."""
        t, v = self.window(start=after)
        above = np.nonzero(v > threshold)[0]
        return float(t[above[0]]) if above.size else None

    def max(self, start: Optional[float] = None, end: Optional[float] = None
            ) -> Optional[float]:
        _, v = self.window(start, end)
        return float(v.max()) if v.size else None

    def min(self, start: Optional[float] = None, end: Optional[float] = None
            ) -> Optional[float]:
        _, v = self.window(start, end)
        return float(v.min()) if v.size else None

    def mean(self, start: Optional[float] = None, end: Optional[float] = None
             ) -> Optional[float]:
        _, v = self.window(start, end)
        return float(v.mean()) if v.size else None

    def value_at(self, time: float) -> Optional[float]:
        """Most recent non-NaN value at or before ``time``."""
        t, v = self.window(end=time)
        return float(v[-1]) if v.size else None

    def as_lists(self) -> Tuple[List[float], List[float]]:
        return list(self._times), list(self._values)
