"""The Figure 7 workload: bandwidth-competition and load stepping functions.

Paper §5.1 defines four periods over the 30-minute run; Figure 7 sketches
the generators.  Our concrete schedule (DESIGN.md §4 records this as our
reading of the under-specified figure):

=========== ==================== ==================== =====================
Period       C3&C4 <-> SG1 path   C3&C4 <-> SG2 path   Client requests
=========== ==================== ==================== =====================
[0, 120)     idle                 idle                 1/s, ~Exp(20 KB)
[120, 600)   **starved** (~8Kbps) moderate (3 Mbps)    1/s, ~Exp(20 KB)
[600, 900)   moderate (3 Mbps)    **starved** (~8Kbps) 3/s, 20 KB fixed
[900, 1050)  **starved**          moderate             3/s, 20 KB fixed
[1050, 1200) moderate             **starved**          3/s, 20 KB fixed
[1200, 1800) moderate (3 Mbps)    high (9.5 Mbps)      1/s, ~Exp(20 KB)
=========== ==================== ==================== =====================

* "starved" = competition demand 9.992 Mbps on the 10 Mbps link, leaving
  ~8 Kbps — **below** the 10 Kbps minBandwidth threshold (the paper's
  dashed line in Figure 10);
* "moderate" = 7 Mbps demand, leaving ~3 Mbps — the paper "maintained
  moderate bandwidth (3Mbps) between the opposite server groups";
* the stress phase [600, 1200) raises all clients to 20 KB at 3/s (the
  paper's "20KB@>2/sec") and alternates which server-group path is
  starved, which is what exercises spare-server recruitment and then the
  client-move oscillation the paper reports;
* the final period raises C3&C4 <-> SG2 bandwidth ("in the final 10
  minutes, we increased the bandwidth between C3&4 and SG2").
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Dict, List

import numpy as np

from repro.sim.process import Process
from repro.util.windows import StepFunction

__all__ = ["Workload", "build_workload", "Arrivals", "burst"]


class Arrivals:
    """Poisson arrivals at a piecewise-constant rate (one step: constant).

    The arrival process of every scenario but the paper's (whose clients
    draw their own).  ``submit`` is called once per arrival; the rate is
    read *before* each exponential gap is drawn, so the schedule is
    reproducible for a given rng regardless of what ``submit`` does.
    Every rate the step function takes must be finite and positive: an
    infinite rate draws zero gaps and the process never leaves its
    instant, so it is refused here, at construction.
    """

    def __init__(
        self,
        sim,
        rate: StepFunction,
        rng,
        submit: Callable[[], object],
        name: str,
    ):
        for value in [rate(0.0), *(value for _, value in rate.breakpoints)]:
            if not (isfinite(value) and value > 0):
                raise ValueError(
                    f"{name}: arrival rates must be finite and positive, got {value}"
                )
        self.sim = sim
        self.rate = rate
        self._rng = rng
        self._submit = submit
        self.name = name

    def start(self) -> Process:
        return Process(self.sim, self._run(), name=self.name)

    def _run(self):
        while True:
            rate = self.rate(self.sim.now)
            yield self.sim.timeout(float(self._rng.exponential(1.0 / rate)))
            self._submit()


def burst(baseline: float, peak: float, start: float, end: float) -> StepFunction:
    """``baseline``, then ``peak`` over ``[start, end)``, then ``baseline``.

    The mid-run scenarios burst over the fractions of the horizon the
    paper's stress phase takes of its 30-minute run: ``[h/6, h/2)``.
    """
    steps = [(start, peak), (end, baseline)]
    if start > 0:
        steps.insert(0, (0.0, baseline))
    return StepFunction(steps)


STARVE = 9.992e6  # leaves ~8 Kbps  (below the 10 Kbps threshold)
MODERATE = 7.0e6  # leaves ~3 Mbps  (the paper's "moderate bandwidth")
LIGHT = 0.5e6  # leaves ~9.5 Mbps (final-period boost toward SG2)


@dataclass
class Workload:
    """Schedules for one experiment run."""

    horizon: float
    request_rate: StepFunction
    competition_a: StepFunction  # demand on the C3&C4 <-> SG1 path
    competition_b: StepFunction  # demand on the C3&C4 <-> SG2 path
    stress_start: float
    stress_end: float
    quiescent_end: float
    mean_response_size: float = 20e3
    stress_response_size: float = 20e3
    request_size: float = 512.0

    def size_fn(self) -> Callable[[float, np.random.Generator], float]:
        """Response-size sampler: Exp(mean) off-stress, fixed in stress.

        The paper seeds clients so sizes repeat identically across runs;
        our per-client named RNG streams guarantee the same.
        """
        mean = self.mean_response_size
        lo, hi = mean / 20.0, mean * 5.0

        def sample(t: float, rng: np.random.Generator) -> float:
            if self.stress_start <= t < self.stress_end:
                return self.stress_response_size
            return float(np.clip(rng.exponential(mean), lo, hi))

        return sample

    def phase_of(self, t: float) -> str:
        if t < self.quiescent_end:
            return "quiescent"
        if t < self.stress_start:
            return "bandwidth-competition"
        if t < self.stress_end:
            return "stress"
        return "recovery"

    def describe(self) -> List[Dict[str, object]]:
        """Rows for the Figure 7 bench: one row per schedule breakpoint."""
        rows: List[Dict[str, object]] = []
        points = sorted(
            {0.0}
            | {t for t, _ in self.request_rate.breakpoints}
            | {t for t, _ in self.competition_a.breakpoints}
            | {t for t, _ in self.competition_b.breakpoints}
        )
        for t in points:
            rows.append(
                {
                    "time_s": t,
                    "phase": self.phase_of(t),
                    "request_rate_per_client": self.request_rate(t),
                    "competition_sg1_bps": self.competition_a(t),
                    "competition_sg2_bps": self.competition_b(t),
                    "residual_sg1_bps": 10e6 - self.competition_a(t),
                    "residual_sg2_bps": 10e6 - self.competition_b(t),
                }
            )
        return rows


def build_workload(
    horizon: float = 1800.0,
    baseline_rate: float = 1.0,
    stress_rate: float = 3.0,
    quiescent_end: float = 120.0,
    stress_start: float = 600.0,
    stress_end: float = 1200.0,
) -> Workload:
    """The paper's Figure 7 schedule (our concrete reading); a phase of
    zero length is left out (the later of two steps at one time holds)."""
    flip1 = stress_start + (stress_end - stress_start) / 2.0  # 900 s
    flip2 = stress_start + 3 * (stress_end - stress_start) / 4.0  # 1050 s

    def steps(*points) -> StepFunction:
        return StepFunction(dict(points).items())

    return Workload(
        horizon=horizon,
        request_rate=steps(
            (0.0, baseline_rate),
            (stress_start, stress_rate),
            (stress_end, baseline_rate),
        ),
        competition_a=steps(
            (0.0, 0.0),
            (quiescent_end, STARVE),
            (stress_start, MODERATE),
            (flip1, STARVE),
            (flip2, MODERATE),
            (stress_end, MODERATE),
        ),
        competition_b=steps(
            (0.0, 0.0),
            (quiescent_end, MODERATE),
            (stress_start, STARVE),
            (flip1, MODERATE),
            (flip2, STARVE),
            (stress_end, LIGHT),
        ),
        stress_start=stress_start,
        stress_end=stress_end,
        quiescent_end=quiescent_end,
    )
