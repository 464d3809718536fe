"""F10 — Figure 10: available bandwidth in the control run.

Paper: "the available bandwidth falls dramatically as the experiment
progresses" — below the 10 Kbps dashed line (the repair trigger) and down
to the 0.001-0.01 Mbps floor on the log axis.
"""

from repro import api
from repro.experiment.reporting import render_bandwidth_figure


def test_figure10_control_bandwidth(benchmark, artifact, control_result):
    result = benchmark.pedantic(
        lambda: api.run(api.RunConfig.control()), rounds=1, iterations=1
    )
    text = render_bandwidth_figure(
        result, "Figure 10: Available Bandwidth in Control"
    )
    print(text)
    artifact("fig10", text)

    cfg = result.config
    for client in ("C3", "C4"):
        bw = result.s(f"bandwidth.{client}")
        # Quiescent: full 10 Mbps paths.
        assert bw.max(end=cfg.params.quiescent_end) > 9e6
        # The squeeze drives it below the paper's 10 Kbps threshold...
        assert bw.min(start=cfg.params.quiescent_end, end=cfg.params.stress_start) < 10e3
        # ...into the figure's 0.001-0.01 Mbps floor.
        assert bw.min() > 100.0
        # The control never escapes: its clients stay on the squeezed path
        # whenever competition targets SG1 (most of the run's middle).
        frac_starved = bw.fraction_above(10e3, start=150, end=cfg.params.stress_start)
        assert frac_starved < 0.1  # i.e. below threshold ~90% of phase A
