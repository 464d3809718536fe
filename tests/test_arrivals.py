"""The one arrival process and the rate checks in front of it.

An infinite rate draws zero gaps, so an arrival loop at that rate never
leaves its instant: ``--set burst_rate=Infinity`` (JSON accepts
``Infinity``) used to hang the run.  Every scenario's params block
refuses a non-finite rate, and :class:`Arrivals` refuses one at
construction behind it.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.errors import ReproError
from repro.experiment.workload import Arrivals, burst
from repro.sim import Simulator
from repro.util.windows import StepFunction

ROOT = Path(__file__).resolve().parents[1]

#: scenario -> the arrival-rate params it validates
RATES = {
    "client_server": ("baseline_rate", "stress_rate"),
    "pipeline": ("baseline_rate", "burst_rate"),
    "master_worker": ("baseline_rate", "burst_rate"),
    "map_reduce": ("baseline_rate", "burst_rate"),
    "multi_tenant": ("baseline_rate", "surge_rate"),
    "multi_tenant_sharded": ("baseline_rate", "surge_rate"),
    "grid_site": ("arrival_rate",),
}
CASES = [(name, field) for name, fields in RATES.items() for field in fields]


def arrival_times(rate, seed=7, until=50.0):
    sim = Simulator()
    times = []
    Arrivals(
        sim,
        rate,
        rng=np.random.default_rng(seed),
        submit=lambda: times.append(sim.now),
        name="test-arrivals",
    ).start()
    sim.run(until=until)
    return times


class TestArrivals:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_refuses_a_rate_that_is_not_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            Arrivals(Simulator(), burst(1.0, bad, 10.0, 20.0), None, print, "a")

    def test_refuses_a_rate_with_no_value_at_time_zero(self):
        with pytest.raises(ValueError, match="got 0.0"):
            Arrivals(Simulator(), StepFunction([(5.0, 1.0)]), None, print, "a")

    def test_constant_rate_draws_one_exponential_per_arrival(self):
        rng = np.random.default_rng(7)
        expected, now = [], 0.0
        while True:
            now += float(rng.exponential(1.0 / 2.0))
            if now > 50.0:
                break
            expected.append(now)
        assert arrival_times(StepFunction([(0.0, 2.0)])) == expected

    def test_rate_is_read_before_each_gap(self):
        # the gap drawn at t < 10 uses the baseline rate even when it
        # lands inside the burst; the next one uses the burst rate
        rate = burst(0.5, 8.0, 10.0, 20.0)
        rng = np.random.default_rng(3)
        expected, now = [], 0.0
        while True:
            now += float(rng.exponential(1.0 / rate(now)))
            if now > 50.0:
                break
            expected.append(now)
        assert arrival_times(rate, seed=3) == expected

    def test_burst_from_time_zero_has_no_baseline_step(self):
        rate = burst(1.0, 4.0, 0.0, 5.0)
        assert rate.breakpoints == [(0.0, 4.0), (5.0, 1.0)]
        assert arrival_times(rate)


class TestRateValidation:
    @pytest.mark.parametrize("scenario,field", CASES)
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rate_is_refused(self, scenario, field, bad):
        config = api.RunConfig.adapted(scenario).but(**{field: bad})
        with pytest.raises(ReproError, match=field):
            config.resolved()

    def test_surge_from_time_zero_runs(self):
        config = api.RunConfig.adapted("multi_tenant", horizon=60.0)
        result = api.run(config.but(surge_start=0.0), fresh=True)
        assert result.completed > 0

    def test_cli_exits_1_on_an_infinite_rate_without_running(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "run", scenario, "--fast",
                 "--set", f"{field}=Infinity"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for scenario, field in (
                ("master_worker", "burst_rate"), ("grid_site", "arrival_rate")
            )
        ]
        try:
            outputs = [run.communicate(timeout=60) for run in runs]
        finally:  # a run that hangs is killed, not left behind
            for run in runs:
                run.kill()
        for run, (out, err) in zip(runs, outputs):
            assert run.returncode == 1, (out, err)
            assert "must be finite and positive" in err
