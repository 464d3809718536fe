"""F12 — Figure 12: available bandwidth under repair.

Paper: "our framework has a positive effect on the available bandwidth
because we are taking better advantage of different network links in our
system after a repair."
"""

from repro import api
from repro.experiment.reporting import render_bandwidth_figure


def test_figure12_repair_bandwidth(benchmark, artifact, adapted_result,
                                   control_result):
    result = benchmark.pedantic(
        lambda: api.run(api.RunConfig.adapted()), rounds=1, iterations=1
    )
    text = render_bandwidth_figure(
        result, "Figure 12: Available Bandwidth under Repair"
    )
    print(text)
    artifact("fig12", text)

    cfg = result.config
    for client in ("C3", "C4"):
        adapted_bw = result.s(f"bandwidth.{client}")
        control_bw = control_result.s(f"bandwidth.{client}")

        # Dips below threshold happen (that's what triggers the repair)...
        assert adapted_bw.min(start=cfg.params.quiescent_end,
                              end=cfg.params.stress_start) < 10e3
        # ...but after the phase-A moves, the client sits on a good path
        # for the rest of the competition phase, while the control stays
        # starved for essentially all of it.
        assert adapted_bw.value_at(cfg.params.stress_start - 10) > 1e6
        a_phase = adapted_bw.fraction_above(
            10e3, start=300, end=cfg.params.stress_start
        )
        c_phase = control_bw.fraction_above(
            10e3, start=300, end=cfg.params.stress_start
        )
        assert a_phase > 0.9, (client, a_phase)
        assert c_phase < 0.1, (client, c_phase)

        # Over the whole run the repaired system spends no less time above
        # threshold (moves chase the competition during stress, so the
        # advantage concentrates in the competition phase).
        a = adapted_bw.fraction_above(10e3, start=cfg.params.quiescent_end)
        c = control_bw.fraction_above(10e3, start=cfg.params.quiescent_end)
        assert a > c, (client, a, c)
