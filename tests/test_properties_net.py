"""Property-based tests (hypothesis): max-min fairness invariants.

Invariants checked on randomized topologies/flow sets:

1. **feasibility** — no link carries more than its capacity;
2. **priority** — cross traffic gets min(demand, path residual) exactly;
3. **max-min** — every elastic flow is bottlenecked: at least one of its
   links is saturated, and on that link no other elastic flow gets more
   (up to numerical tolerance);
4. **work conservation** — a single elastic flow alone takes the full
   bottleneck capacity of its path.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net import FlowNetwork, Topology
from repro.sim import Simulator

TOL = 1e-6


def star_topology(n_hosts: int, capacities):
    """n hosts around one router, host i's access capacity capacities[i]."""
    t = Topology()
    t.add_router("r")
    for i in range(n_hosts):
        t.add_host(f"h{i}")
        t.add_link(f"h{i}", "r", capacities[i])
    return t


@st.composite
def star_scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    caps = [
        draw(st.floats(min_value=1e5, max_value=1e7)) for _ in range(n)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for _ in range(n_flows):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1).filter(
            lambda d, s=src: d != s
        ))
        flows.append((f"h{src}", f"h{dst}"))
    n_comp = draw(st.integers(min_value=0, max_value=2))
    comps = []
    for i in range(n_comp):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1).filter(
            lambda d, s=src: d != s
        ))
        rate = draw(st.floats(min_value=1e4, max_value=2e7))
        comps.append((f"h{src}", f"h{dst}", rate))
    return n, caps, flows, comps


def build(scenario):
    n, caps, flows, comps = scenario
    sim = Simulator()
    net = FlowNetwork(sim, star_topology(n, caps))
    for i, (src, dst, rate) in enumerate(comps):
        net.set_cross_traffic(f"comp{i}", src, dst, rate)
    for src, dst in flows:
        net.transfer(src, dst, 1e12)  # long-lived
    return net


@settings(max_examples=60, deadline=None)
@given(star_scenarios())
def test_no_link_oversubscribed(scenario):
    net = build(scenario)
    for link in net.topology.links:
        load = net.link_load(link.a, link.b)
        assert load <= link.capacity * (1 + 1e-9) + TOL


@settings(max_examples=60, deadline=None)
@given(star_scenarios())
# h0's link keeps ~2e-9 bit/s after the priority flow: above the
# saturation threshold, but split over two flows below it.  A fill that
# stops there leaves h3 -> h1 at zero.
@example(
    scenario=(
        4,
        [10000000.0, 100000.0, 9999999.999999998, 100000.0],
        [("h0", "h1"), ("h0", "h1"), ("h3", "h1")],
        [("h0", "h2", 10000000.0)],
    )
)
def test_every_elastic_flow_gets_positive_rate_when_feasible(scenario):
    net = build(scenario)
    for flow in net.active_transfers:
        # Priority traffic may consume a whole link; otherwise rate > 0.
        residual_possible = min(
            link.capacity - sum(
                f.rate for f in net.flows if f.priority and link in f.links
            )
            for link in flow.links
        )
        if residual_possible > TOL:
            assert flow.rate > 0.0


@settings(max_examples=60, deadline=None)
@given(star_scenarios())
def test_elastic_flows_are_bottlenecked(scenario):
    """Max-min: each elastic flow saturates some link on its path where no
    elastic flow receives a larger share."""
    net = build(scenario)
    elastic = net.active_transfers
    for flow in elastic:
        if flow.rate <= TOL:
            continue
        found_bottleneck = False
        for link in flow.links:
            load = net.link_load(link.a, link.b)
            if load >= link.capacity * (1 - 1e-6):
                peers = [
                    f.rate for f in elastic if link in f.links and f is not flow
                ]
                if all(p <= flow.rate * (1 + 1e-6) + TOL for p in peers):
                    found_bottleneck = True
                    break
        assert found_bottleneck, f"{flow} has no max-min bottleneck"


@settings(max_examples=60, deadline=None)
@given(star_scenarios())
def test_priority_flows_take_min_of_demand_and_path(scenario):
    net = build(scenario)
    # Priority flows are allocated in fid order; verify each one's rate is
    # min(demand, residual at its allocation step) by replaying greedily.
    residual = {link.key: link.capacity for link in net.topology.links}
    for flow in net.flows:
        if not flow.priority:
            continue
        expected = min(flow.cap, min(residual[link.key] for link in flow.links))
        expected = max(0.0, expected)
        assert flow.rate == pytest.approx(expected, abs=1.0)
        for link in flow.links:
            residual[link.key] -= flow.rate


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1e5, max_value=1e7),
    st.floats(min_value=1e5, max_value=1e7),
)
def test_single_flow_takes_bottleneck(cap_a, cap_b):
    t = Topology()
    t.add_host("a")
    t.add_host("b")
    t.add_router("r")
    t.add_link("a", "r", cap_a)
    t.add_link("r", "b", cap_b)
    sim = Simulator()
    net = FlowNetwork(sim, t)
    net.transfer("a", "b", 1e12)
    (flow,) = net.active_transfers
    assert flow.rate == pytest.approx(min(cap_a, cap_b), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10))
def test_equal_flows_share_equally(n_flows):
    t = Topology()
    t.add_host("a")
    t.add_host("b")
    t.add_router("r")
    t.add_link("a", "r", 10e6)
    t.add_link("r", "b", 10e6)
    sim = Simulator()
    net = FlowNetwork(sim, t)
    for _ in range(n_flows):
        net.transfer("a", "b", 1e12)
    rates = [f.rate for f in net.active_transfers]
    assert all(r == pytest.approx(10e6 / n_flows, rel=1e-9) for r in rates)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e3, max_value=2e6), min_size=2, max_size=6
    )
)
def test_transfer_completion_conserves_bytes(sizes):
    """All transfers complete and deliver exactly their size."""
    t = Topology()
    t.add_host("a")
    t.add_host("b")
    t.add_router("r")
    t.add_link("a", "r", 10e6)
    t.add_link("r", "b", 10e6)
    sim = Simulator()
    net = FlowNetwork(sim, t)
    done = []
    for size in sizes:
        net.transfer("a", "b", size).add_callback(lambda e: done.append(e.ok))
    sim.run()
    assert len(done) == len(sizes)
    assert all(done)
    assert net.total_bits_delivered == pytest.approx(sum(sizes) * 8.0)
    # network is empty and idle again
    assert net.active_transfers == []
    assert net.link_load("a", "r") == 0.0
