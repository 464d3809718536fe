#!/usr/bin/env python
"""The three-level monitoring infrastructure (paper Figure 4), stand-alone.

Wires probes -> gauges -> a gauge consumer over a miniature two-machine
application, then demonstrates the gauge-redeployment blind spot that
dominates the paper's 30 s repair time.

Run:  python examples/monitoring_demo.py
"""

from repro.app import Client, GridApplication, Server
from repro.bus import EventBus, FixedDelay
from repro.monitoring import (
    CallbackProbe,
    ClientLatencyProbe,
    GaugeManager,
    WindowedMeanGauge,
)
from repro.net import FlowNetwork, Topology
from repro.sim import Simulator
from repro.util.rng import SeedSequenceFactory
from repro.util.windows import StepFunction


def main() -> None:
    # --- a two-machine application -------------------------------------
    topo = Topology()
    topo.add_host("mc")
    topo.add_host("ms")
    topo.add_router("r")
    topo.add_link("mc", "r", 10e6)
    topo.add_link("ms", "r", 10e6)
    sim = Simulator()
    net = FlowNetwork(sim, topo)
    app = GridApplication(sim, net, rq_machine="ms")
    app.add_client(Client(
        sim, "C1", "mc",
        rate=StepFunction([(0.0, 2.0)]),
        size_fn=lambda t, rng: 20e3,
        rng=SeedSequenceFactory(7).rng("C1"),
    ))
    app.add_server(Server(sim, "S1", "ms", net, service_base=0.3))
    group = app.create_group("SG1")
    app.rq.assign("C1", "SG1")
    server = app.server("S1")
    server.connect("SG1", group.queue)
    group.add(server)
    server.activate()

    # --- probes, gauges, consumer ----------------------------------------
    probe_bus = EventBus(sim, FixedDelay(0.01), name="probe-bus")
    gauge_bus = EventBus(sim, FixedDelay(0.01), name="gauge-bus")
    # every probe publishes target + value on probe.<kind>.<target>; a
    # gauge of the same (kind, target) folds them into a model property
    ClientLatencyProbe(sim, probe_bus, app, "C1")
    CallbackProbe(sim, probe_bus, "load", "SG1", lambda: app.group_load("SG1")).start()

    manager = GaugeManager(sim, create_delay=5.0)
    gauges = {
        kind: manager.create(
            WindowedMeanGauge(sim, probe_bus, gauge_bus, kind, target, period=5.0),
            entities=[target],
        )
        for kind, target in (("latency", "C1"), ("load", "SG1"))
    }

    reports = []
    gauge_bus.subscribe(
        "gauge.>",
        lambda m: reports.append((round(m.time, 1), m.subject, round(m["value"], 3))),
    )

    # --- run, then redeploy mid-flight ------------------------------------
    app.start_clients(60.0)
    sim.run(until=30.0)
    print("gauge reports in the first 30 s (gauges deploy at t=5):")
    for r in reports:
        print("  ", r)

    print("\nredeploying C1's gauges (destroy+create, 20 s blind window)...")
    manager.redeploy_for("C1", window=20.0)
    before = len(reports)
    sim.run(until=60.0)
    gap = [r for r in reports[before:] if r[1].startswith("gauge.latency")]
    print(f"latency reports from t=30..60: {gap}")
    print(f"(note the blind gap until ~{30 + 20 + 5:.0f} s, then a fresh window)")
    print(f"\ngauge manager stats: created={manager.created}, "
          f"redeployments={manager.redeployments}")
    print(f"probe bus delivered {probe_bus.delivered} observations; "
          f"latency gauge produced {gauges['latency'].reports} reports")


if __name__ == "__main__":
    main()
