"""F13 — Figure 13: server load under repair.

Paper: "Our results for the server load show a marked improvement...
Note that the only time that the server load rises above the constrained
value is when we stress the servers."
"""

from repro import api
from repro.experiment.reporting import render_load_figure


def test_figure13_repair_load(benchmark, artifact, adapted_result,
                              control_result):
    result = benchmark.pedantic(
        lambda: api.run(api.RunConfig.adapted()), rounds=1, iterations=1
    )
    text = render_load_figure(result, "Figure 13: Server Load under Repair")
    print(text)
    artifact("fig13", text)

    cfg = result.config
    for group in ("SG1", "SG2"):
        load = result.s(f"load.{group}")
        # Above the limit ONLY during the stress window.
        assert load.fraction_above(
            cfg.params.max_server_load, start=cfg.params.quiescent_end, end=cfg.params.stress_start
        ) == 0.0, group
        assert load.fraction_above(
            cfg.params.max_server_load, start=cfg.params.stress_end
        ) == 0.0, group
    # Stress does push the queue over the line (repairs are continually
    # performed during this period)...
    assert result.s("load.SG1").fraction_above(
        cfg.params.max_server_load, start=cfg.params.stress_start, end=cfg.params.stress_end
    ) > 0.05
    # ...but the explosion is orders of magnitude smaller than control's.
    assert result.s("load.SG1").max() < control_result.s("load.SG1").max() / 5

    # The load repair recruited the spares into the overloaded group.
    activations = result.history.server_activations()
    assert len(activations) == 2
    assert {server for _, server, _ in activations} == {"S4", "S7"}
