"""F9 — Figure 9: server load (queue length) for the control run.

Paper: "the server load increases dramatically as the experiment
progresses" (log axis to 10000; dashed overload line at 6).
"""

from repro import api
from repro.experiment.reporting import render_load_figure


def test_figure9_control_load(benchmark, artifact, control_result):
    result = benchmark.pedantic(
        lambda: api.run(api.RunConfig.control()), rounds=1, iterations=1
    )
    text = render_load_figure(result, "Figure 9: Server Load for Control")
    print(text)
    artifact("fig09", text)

    sg1 = result.s("load.SG1")
    cfg = result.config

    # Dramatic growth into the figure's order of magnitude.
    assert sg1.max() > 1000.0

    # The queue blows through the overload line for the whole stress phase.
    assert sg1.fraction_above(cfg.params.max_server_load,
                              start=700, end=cfg.params.stress_end) == 1.0

    # Monotone growth while stressed ("increases dramatically as the
    # experiment progresses"): each stress checkpoint dwarfs the last.
    assert sg1.value_at(cfg.params.stress_start) < 10.0
    assert sg1.value_at(700.0) > 100.0
    assert sg1.value_at(900.0) > 1.5 * sg1.value_at(700.0)
    assert sg1.value_at(cfg.params.stress_end) > 1.5 * sg1.value_at(900.0)

    # Drain begins only after the stress ends ("begins to recover").
    assert sg1.value_at(cfg.horizon) < sg1.value_at(cfg.params.stress_end) / 2

    # SG2 never explodes: the control never moves anyone onto it.
    assert result.s("load.SG2").max() < 50.0
