#!/usr/bin/env python
"""The paper's §5 experiment: control vs architecture-based adaptation.

Runs both 30-minute scenarios on the simulated Figure 6 testbed under the
Figure 7 workload and prints the Figures 8-13 series plus the §5.2
comparison table.

Run:  python examples/load_balancing_experiment.py [--short]
      (--short runs 700 simulated seconds for a quick look)
"""

import sys

from repro import api
from repro.experiment import build_workload, reporting
from repro.experiment.metrics import extract_claims


def main() -> None:
    horizon = 700.0 if "--short" in sys.argv else 1800.0

    print(f"running control scenario ({horizon:.0f} simulated seconds)...")
    control = api.run(api.RunConfig.control(horizon=horizon))
    print(f"running adapted scenario ({horizon:.0f} simulated seconds)...")
    adapted = api.run(api.RunConfig.adapted(horizon=horizon))

    print()
    print(reporting.render_workload(
        build_workload(horizon=horizon),
        "Figure 7: bandwidth competition and load generation",
    ))
    print()
    print(reporting.render_latency_figure(control, "Figure 8: average latency"))
    print()
    print(reporting.render_load_figure(control, "Figure 9: server load"))
    print()
    print(reporting.render_bandwidth_figure(control, "Figure 10: available bandwidth"))
    print()
    print(reporting.render_latency_figure(adapted, "Figure 11: average latency"))
    print()
    print(reporting.render_bandwidth_figure(adapted, "Figure 12: available bandwidth"))
    print()
    print(reporting.render_load_figure(adapted, "Figure 13: server load"))
    print()
    print(reporting.render_repair_intervals(adapted))
    print()
    print(reporting.render_comparison(
        extract_claims(control), extract_claims(adapted)
    ))
    print()
    print("repair log:")
    for record in adapted.history:
        print("  ", record)

    # The architectural model is a design-time artifact too: export the
    # initial adapted-run model as Acme text (paper section 2).
    from repro.acme import unparse_system
    from repro.experiment.runner import Experiment

    # (the plane has one shard, and that shard is the whole model)
    model = Experiment(api.RunConfig.adapted(horizon=1.0)).model.shard(0)
    print()
    print("initial architectural model (Acme):")
    print(unparse_system(model))


if __name__ == "__main__":
    main()
