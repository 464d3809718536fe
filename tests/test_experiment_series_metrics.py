"""Unit tests for time series and metric extraction."""

import pytest

from repro.experiment.series import TimeSeries


class TestTimeSeries:
    def _ts(self):
        ts = TimeSeries("x", "s")
        for t, v in [(0, 1.0), (5, None), (10, 3.0), (15, 0.5), (20, 9.0)]:
            ts.append(t, v)
        return ts

    def test_nan_handling(self):
        ts = self._ts()
        assert len(ts) == 5
        t, v = ts.window()
        assert len(v) == 4  # None dropped from stats

    def test_window_bounds(self):
        ts = self._ts()
        t, v = ts.window(start=10, end=15)
        assert list(t) == [10, 15]

    def test_fraction_above(self):
        ts = self._ts()
        assert ts.fraction_above(2.0) == pytest.approx(0.5)  # 3.0, 9.0 of 4
        assert ts.fraction_above(100.0) == 0.0

    def test_first_and_last_crossing(self):
        ts = self._ts()
        assert ts.first_crossing(2.0) == 10.0
        assert ts.first_crossing(2.0, after=12.0) == 20.0
        assert ts.last_crossing(2.0) == 20.0
        assert ts.first_crossing(99.0) is None

    def test_min_max_mean(self):
        ts = self._ts()
        assert ts.max() == 9.0
        assert ts.min() == 0.5
        assert ts.mean() == pytest.approx((1 + 3 + 0.5 + 9) / 4)

    def test_value_at(self):
        ts = self._ts()
        assert ts.value_at(12.0) == 3.0
        assert ts.value_at(-1.0) is None

    def test_time_order_enforced(self):
        ts = TimeSeries("x")
        ts.append(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(4.0, 1.0)

    def test_empty_stats(self):
        ts = TimeSeries("x")
        assert ts.max() is None
        assert ts.fraction_above(1.0) == 0.0
        assert ts.first_crossing(1.0) is None


class TestShortRuns:
    """Fast end-to-end runs exercising the full wiring (both scenarios)."""

    @pytest.fixture(scope="class")
    def control(self):
        from repro.experiment import RunConfig, run_scenario

        return run_scenario(RunConfig.control().but(horizon=300.0))

    @pytest.fixture(scope="class")
    def adapted(self):
        from repro.experiment import RunConfig, run_scenario

        return run_scenario(RunConfig.adapted().but(horizon=300.0))

    def test_control_c3_collapses(self, control):
        assert control.s("latency.C3").first_crossing(2.0, after=120) is not None
        assert control.s("latency.C3").max() > 10.0

    def test_control_c1_healthy_in_phase_a(self, control):
        assert control.s("latency.C1").fraction_above(2.0, end=300) == 0.0

    def test_control_bandwidth_starved(self, control):
        assert control.s("bandwidth.C3").min() < 10e3

    def test_control_has_no_repairs(self, control):
        assert len(control.history) == 0
        assert control.repair_intervals() == []

    def test_adapted_moves_squeezed_clients(self, adapted):
        moves = adapted.history.client_moves()
        moved = {m[1] for m in moves}
        assert moved == {"C3", "C4"}
        assert all(m[3] == "SG2" for m in moves)

    def test_adapted_recovers_by_300s(self, adapted):
        for c in ("C3", "C4"):
            ts = adapted.s(f"latency.{c}")
            assert ts.value_at(295.0) < 2.0

    def test_adapted_bandwidth_improves_after_move(self, adapted):
        # Figure 12's claim: repairs improve available bandwidth.
        ts = adapted.s("bandwidth.C3")
        assert ts.value_at(295.0) > 1e6

    def test_repair_intervals_recorded(self, adapted):
        intervals = adapted.repair_intervals()
        assert len(intervals) >= 2
        for a, b in intervals:
            assert b > a

    def test_determinism_same_seed(self, control):
        from repro.experiment import RunConfig, run_scenario

        again = run_scenario(
            RunConfig.control().but(horizon=300.0), fresh=True
        )
        t1, v1 = control.s("latency.C3").window()
        t2, v2 = again.s("latency.C3").window()
        assert list(t1) == list(t2)
        assert list(v1) == list(v2)
        assert again.issued == control.issued

    def test_control_and_adapted_issue_identical_workload(self, control, adapted):
        # The paper's seeding methodology: same request sequence both runs.
        assert control.issued == adapted.issued

    def test_claims_extraction(self, adapted):
        from repro.experiment.metrics import extract_claims

        report = extract_claims(adapted)
        assert report.repairs_committed >= 2
        assert report.client_moves >= 2
        assert report.mean_repair_duration > 5.0

    def test_reporting_renders(self, control, adapted):
        from repro.experiment import reporting
        from repro.experiment.metrics import extract_claims

        text = reporting.render_latency_figure(adapted, "Figure 11")
        assert "latency.C3" in text
        text = reporting.render_load_figure(control, "Figure 9")
        assert "load.SG1" in text
        text = reporting.render_bandwidth_figure(control, "Figure 10")
        assert "bandwidth.C3" in text
        text = reporting.render_comparison(
            extract_claims(control), extract_claims(adapted)
        )
        assert "control" in text and "adapted" in text
        text = reporting.render_repair_intervals(adapted)
        assert "duration" in text
