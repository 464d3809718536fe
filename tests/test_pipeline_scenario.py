"""End-to-end tests for the registered ``pipeline`` scenario.

The acceptance shape mirrors the paper's headline comparison, transposed
to the batch-pipeline style: under the same seeded burst workload, the
adapted run detects the backlog violation, widens the slowest stage
through the full control plane (gauges -> model -> constraint -> repair
-> translation), and the backlog recovers; the control run commits no
repairs and ends the horizon still drowning.  Once the burst passes, the
``idleWidth`` invariant's shrink repair narrows the widened stage back to
its designed width — the style's underutilization scale-down.
"""

import pytest

from repro.experiment import PipelineParams, RunConfig, run_scenario
from repro.experiment.pipeline_scenario import PipelineExperiment

_DEFAULTS = PipelineParams()
STAGES = _DEFAULTS.stages
BURST_RATE = _DEFAULTS.burst_rate
MAX_BACKLOG = _DEFAULTS.max_backlog
WORKER_BUDGET = _DEFAULTS.worker_budget


def _adapted():
    return run_scenario(RunConfig.adapted("pipeline"))


def _control():
    return run_scenario(RunConfig.control("pipeline"))


class TestPipelineScenarioEndToEnd:
    def test_same_seeded_workload_both_runs(self):
        assert _adapted().issued == _control().issued > 0

    def test_adapted_commits_repairs_control_does_not(self):
        adapted, control = _adapted(), _control()
        assert len(adapted.history.committed) >= 1
        assert len(control.history) == 0
        record = adapted.history.committed[0]
        assert record.strategy == "fixBacklog"
        assert record.intents and record.intents[0].op == "widenStage"

    def test_repair_widens_the_slowest_stage(self):
        adapted = _adapted()
        # transform is the designed bottleneck; every repair targets it
        targets = {
            i.args["stage"]
            for r in adapted.history.committed
            for i in r.intents
        }
        assert targets == {"transform"}
        assert max(adapted.s("width.transform").values) > 1
        # ... within the style's worker budget
        peak_total = max(
            sum(widths)
            for widths in zip(
                *(adapted.s(f"width.{name}").values for name, _, _ in STAGES)
            )
        )
        assert peak_total <= WORKER_BUDGET

    def test_adapted_backlog_recovers_control_drowns(self):
        adapted, control = _adapted(), _control()
        assert adapted.s("backlog.transform").values[-1] < MAX_BACKLOG
        assert control.s("backlog.transform").values[-1] > 10 * MAX_BACKLOG
        assert adapted.completed > control.completed

    def test_widened_capacity_covers_burst(self):
        adapted = _adapted()
        peak_width = max(adapted.s("width.transform").values)
        service_time = dict((n, t) for n, _, t in STAGES)["transform"]
        assert peak_width / service_time >= BURST_RATE

    def test_stage_narrows_back_after_burst(self):
        """The underutilization shrink repair: once the burst passes and
        the widened stage idles, shrinkStage narrows it back down to its
        designed minimum width, one worker per settle period."""
        adapted = _adapted()
        burst_end = adapted.config.horizon / 2.0  # PipelineExperiment.burst_end
        narrows = [
            r for r in adapted.history.committed if r.strategy == "shrinkStage"
        ]
        assert narrows, "no shrinkStage repair committed"
        for record in narrows:
            assert record.started > burst_end  # never mid-burst
            assert all(i.op == "narrowStage" for i in record.intents)
        # ...all the way back to the designed width
        initial_width = dict((n, w) for n, w, _ in STAGES)["transform"]
        assert adapted.s("width.transform").values[-1] == initial_width
        # the scale-down must not reopen the backlog violation
        assert adapted.s("backlog.transform").values[-1] < MAX_BACKLOG

    def test_no_widen_narrow_oscillation(self):
        """The utilization guard keeps the shrink repair off mid-burst:
        the width trace rises monotonically to its peak, then falls
        monotonically back — no widen/narrow thrash."""
        adapted = _adapted()
        widths = list(adapted.s("width.transform").values)
        peak = max(widths)
        peak_at = widths.index(peak)
        rising, falling = widths[: peak_at + 1], widths[peak_at:]
        assert all(a <= b for a, b in zip(rising, rising[1:]))
        assert all(a >= b for a, b in zip(falling, falling[1:]))

    def test_repair_marks_fall_inside_run(self):
        adapted = _adapted()
        intervals = adapted.repair_intervals()
        assert len(intervals) >= 1
        for start, end in intervals:
            assert 0.0 < start < end <= adapted.config.horizon

    def test_control_has_no_control_plane(self):
        exp = PipelineExperiment(RunConfig.control("pipeline"))
        assert exp.runtime is None

    def test_cache_key_distinguishes_scenarios(self):
        client_server = RunConfig.adapted()
        pipeline = RunConfig.adapted("pipeline")
        assert client_server.cache_key() != pipeline.cache_key()

    def test_results_reproducible_for_same_seed(self):
        first = run_scenario(RunConfig.adapted("pipeline"), fresh=True)
        second = run_scenario(RunConfig.adapted("pipeline"), fresh=True)
        assert first.issued == second.issued
        assert first.completed == second.completed
        assert len(first.history) == len(second.history)
        assert list(first.s("backlog.transform").values) == pytest.approx(
            list(second.s("backlog.transform").values)
        )
