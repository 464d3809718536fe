"""A2 — ablation: QoS-prioritized monitoring traffic vs in-band monitoring.

Paper §5.3: "The same network is being used to monitor the system as to
run it... This produces a lag in the time when the bandwidth actually
rises and the time it is noticed and repaired.  One way to address this is
to use network Quality of Service (QoS) techniques to prioritize
monitoring traffic."
"""

from repro import api
from repro.util.tables import render_table

HORIZON = 700.0


def first_repair_start(result):
    starts = result.trace.select("repair.start")
    return starts[0].time if starts else None


def run_pair():
    inband = api.run(
        api.RunConfig.adapted().but(horizon=HORIZON, name="adapted-inband")
    )
    qos = api.run(
        api.RunConfig.adapted().but(
            horizon=HORIZON, monitoring_qos=True, name="adapted-qos"
        )
    )
    return inband, qos


def test_a2_monitoring_qos(benchmark, artifact):
    inband, qos = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    t_inband = first_repair_start(inband)
    t_qos = first_repair_start(qos)
    rows = [
        ["first repair dispatched (s)", round(t_inband, 1), round(t_qos, 1)],
        ["probe-bus mean transit (s)",
         round(inband.stats.bus["probe_mean_transit"], 3),
         round(qos.stats.bus["probe_mean_transit"], 3)],
        ["gauge-bus mean transit (s)",
         round(inband.stats.bus["gauge_mean_transit"], 3),
         round(qos.stats.bus["gauge_mean_transit"], 3)],
        ["repairs committed", len(inband.history.committed),
         len(qos.history.committed)],
    ]
    text = render_table(
        ["metric", "in-band monitoring (paper)", "QoS-prioritized"],
        rows, title="A2: monitoring QoS ablation (paper section 5.3, bullet 2)",
    )
    print(text)
    artifact("ablation_a2_monitoring_qos", text)

    # Congestion delays in-band observations, so detection lags.
    assert inband.stats.bus["probe_mean_transit"] > \
        qos.stats.bus["probe_mean_transit"]
    # With QoS the first repair fires no later (usually earlier).
    assert t_qos <= t_inband
    # Both configurations still repair the phase-A squeeze.
    assert len(inband.history.committed) >= 2
    assert len(qos.history.committed) >= 2
