"""F11 — Figure 11: average latency under repair.

Paper: "a dramatic improvement in the average latencies experienced by the
clients.  Once our framework detects that client latency is above two
seconds, a repair is invoked (either to move a client or add a server)" —
with repair intervals marked along the top of the figure.
"""

from repro import api
from repro.experiment.reporting import (
    render_latency_figure,
    render_repair_intervals,
)


def test_figure11_repair_latency(benchmark, artifact, adapted_result,
                                 control_result):
    result = benchmark.pedantic(
        lambda: api.run(api.RunConfig.adapted()), rounds=1, iterations=1
    )
    text = (
        render_latency_figure(result, "Figure 11: Average Latency under Repair")
        + "\n\n" + render_repair_intervals(result)
    )
    print(text)
    artifact("fig11", text)

    cfg = result.config

    # Repairs were invoked, of both kinds the paper names.
    tactics = result.history.tactic_counts()
    assert tactics.get("fixBandwidth", 0) >= 2    # clients moved
    assert tactics.get("fixServerLoad", 0) >= 1   # servers added

    # Latency below threshold "for most of the time" for every client,
    # dramatically better than the control.
    for client in result.clients:
        adapted_frac = result.s(f"latency.{client}").fraction_above(
            2.0, start=cfg.params.quiescent_end
        )
        control_frac = control_result.s(f"latency.{client}").fraction_above(
            2.0, start=cfg.params.quiescent_end
        )
        assert adapted_frac < 0.45, (client, adapted_frac)
        assert adapted_frac < control_frac / 2, (client, adapted_frac, control_frac)

    # Full recovery by the final phase (the control is still pinned > 2 s).
    for client in result.clients:
        assert result.s(f"latency.{client}").fraction_above(
            2.0, start=cfg.horizon - 300
        ) == 0.0

    # Phase-A squeeze is repaired quickly: the squeezed clients are healthy
    # again well before the stress phase begins.
    for client in ("C3", "C4"):
        assert result.s(f"latency.{client}").fraction_above(
            2.0, start=350, end=cfg.params.stress_start
        ) == 0.0

    # Repair intervals exist and are tens of seconds (the paper's ~30 s).
    intervals = result.repair_intervals()
    assert len(intervals) >= 5
    durations = [b - a for a, b in intervals if (b - a) > 5]
    assert durations and 10 < sum(durations) / len(durations) < 45
