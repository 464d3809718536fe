"""The paper's §5 scalar claims, read off one client/server run.

The series they read are the experiment's out-of-band ground truth
(:meth:`repro.experiment.runner.Experiment.series`: client windows, queue
lengths, flow-engine bandwidth, sampled every ``sample_period`` seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiment.result import ClientServerResult

__all__ = ["BANDWIDTH_CLIENTS", "ClaimReport", "extract_claims"]

#: the clients whose bandwidth is sampled: the ones the competition targets
BANDWIDTH_CLIENTS = ("C3", "C4")


# ---------------------------------------------------------------------------
# Scalar claims (§5.2 / §5.3)
# ---------------------------------------------------------------------------


@dataclass
class ClaimReport:
    """Derived quantities mirroring the paper's §5 prose."""

    name: str
    # latency behaviour
    first_violation: Optional[float] = None  # earliest client crossing 2 s
    violation_fraction: float = 0.0  # fraction of samples > 2 s
    final_window_fraction: float = 0.0  # > 2 s within last 5 minutes
    worst_latency: Optional[float] = None
    # load behaviour
    max_load: Optional[float] = None
    load_over_limit_outside_stress: float = 0.0
    load_over_limit_inside_stress: float = 0.0
    # bandwidth behaviour
    min_bandwidth_observed: Optional[float] = None
    # repair behaviour
    repairs_committed: int = 0
    repairs_aborted: int = 0
    mean_repair_duration: float = 0.0
    server_activations: List = field(default_factory=list)
    client_moves: int = 0
    oscillations: int = 0
    dropped_responses: int = 0

    def rows(self) -> List[List[object]]:
        def fmt(v):
            return "-" if v is None else v

        return [
            ["first latency violation (s)", fmt(self.first_violation)],
            ["fraction of samples > 2 s", round(self.violation_fraction, 4)],
            ["fraction > 2 s in final 5 min", round(self.final_window_fraction, 4)],
            ["worst windowed latency (s)", fmt(self.worst_latency)],
            ["max queue length", fmt(self.max_load)],
            [
                "load > 6 outside stress (frac)",
                round(self.load_over_limit_outside_stress, 4),
            ],
            [
                "load > 6 inside stress (frac)",
                round(self.load_over_limit_inside_stress, 4),
            ],
            ["min observed bandwidth (bps)", fmt(self.min_bandwidth_observed)],
            ["repairs committed", self.repairs_committed],
            ["repairs aborted", self.repairs_aborted],
            ["mean repair duration (s)", round(self.mean_repair_duration, 1)],
            ["spare-server activations", self.server_activations],
            ["client moves", self.client_moves],
            ["oscillating moves", self.oscillations],
            ["responses dropped by moves", self.dropped_responses],
        ]


def extract_claims(result: "ClientServerResult") -> ClaimReport:
    """Compute the §5 claims from one client/server run's result."""
    cfg = result.config
    params = cfg.params  # ClientServerParams (thresholds, phase times)
    report = ClaimReport(name=cfg.name)

    latencies = [result.s(f"latency.{c}") for c in result.clients]
    crossings = [
        ts.first_crossing(params.max_latency, after=params.quiescent_end)
        for ts in latencies
    ]
    crossings = [c for c in crossings if c is not None]
    report.first_violation = min(crossings) if crossings else None

    total = above = final_total = final_above = 0
    final_start = cfg.horizon - 300.0
    worst = None
    for ts in latencies:
        _, v = ts.window(start=params.quiescent_end)
        total += v.size
        above += int((v > params.max_latency).sum())
        _, vf = ts.window(start=final_start)
        final_total += vf.size
        final_above += int((vf > params.max_latency).sum())
        m = ts.max()
        if m is not None:
            worst = m if worst is None else max(worst, m)
    report.violation_fraction = above / total if total else 0.0
    report.final_window_fraction = final_above / final_total if final_total else 0.0
    report.worst_latency = worst

    loads = [result.s(f"load.{g}") for g in ("SG1", "SG2")]
    report.max_load = max(
        (ts.max() for ts in loads if ts.max() is not None), default=None
    )
    out_n = out_a = in_n = in_a = 0
    for ts in loads:
        _, vo = ts.window(start=params.quiescent_end, end=params.stress_start)
        out_n += vo.size
        out_a += int((vo > params.max_server_load).sum())
        _, vo2 = ts.window(start=params.stress_end)
        out_n += vo2.size
        out_a += int((vo2 > params.max_server_load).sum())
        _, vi = ts.window(start=params.stress_start, end=params.stress_end)
        in_n += vi.size
        in_a += int((vi > params.max_server_load).sum())
    report.load_over_limit_outside_stress = out_a / out_n if out_n else 0.0
    report.load_over_limit_inside_stress = in_a / in_n if in_n else 0.0

    bw_mins = [
        result.s(f"bandwidth.{c}").min()
        for c in BANDWIDTH_CLIENTS
        if f"bandwidth.{c}" in result.series
    ]
    bw_mins = [b for b in bw_mins if b is not None]
    report.min_bandwidth_observed = min(bw_mins) if bw_mins else None

    history = result.history
    report.repairs_committed = len(history.committed)
    report.repairs_aborted = len(history.aborted)
    report.mean_repair_duration = history.mean_duration()
    report.server_activations = [
        (round(t, 1), server, group)
        for t, server, group in history.server_activations()
    ]
    report.client_moves = len(history.client_moves())
    report.oscillations = sum(history.oscillation_count(c) for c in result.clients)
    report.dropped_responses = result.dropped
    return report
