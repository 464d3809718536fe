"""Unit tests for the max-min fair flow engine."""

import pytest

from repro.errors import NetworkError
from repro.net import FlowNetwork, Topology
from repro.sim import Simulator


def dumbbell(capacity=10e6):
    """a1, a2 -- r1 ==bottleneck== r2 -- b1, b2."""
    t = Topology()
    for h in ("a1", "a2", "b1", "b2"):
        t.add_host(h)
    t.add_router("r1")
    t.add_router("r2")
    t.add_link("a1", "r1", 100e6)
    t.add_link("a2", "r1", 100e6)
    t.add_link("b1", "r2", 100e6)
    t.add_link("b2", "r2", 100e6)
    t.add_link("r1", "r2", capacity)
    return t


def make(capacity=10e6):
    sim = Simulator()
    net = FlowNetwork(sim, dumbbell(capacity))
    return sim, net


class TestSingleTransfer:
    def test_full_capacity_single_flow(self):
        sim, net = make(10e6)
        done_at = []
        ev = net.transfer("a1", "b1", nbytes=10e6 / 8)  # 10 Mbit
        ev.add_callback(lambda e: done_at.append(sim.now))
        sim.run()
        assert done_at == [pytest.approx(1.0)]

    def test_local_transfer_uses_local_channel(self):
        sim, net = make()
        done_at = []
        net.transfer("a1", "a1", nbytes=1e9 / 8).add_callback(
            lambda e: done_at.append(sim.now)
        )
        sim.run()
        assert done_at == [pytest.approx(1.0)]  # 1 Gbit at local 1 Gbps

    def test_zero_byte_transfer_completes(self):
        sim, net = make()
        done = []
        net.transfer("a1", "b1", 0).add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_negative_size_rejected(self):
        _, net = make()
        with pytest.raises(NetworkError):
            net.transfer("a1", "b1", -1)


class TestFairSharing:
    def test_two_flows_share_bottleneck(self):
        sim, net = make(10e6)
        done = {}
        # Both need 10 Mbit; sharing 10 Mbps they each get 5 Mbps.
        net.transfer("a1", "b1", 10e6 / 8).add_callback(
            lambda e: done.setdefault("f1", sim.now)
        )
        net.transfer("a2", "b2", 10e6 / 8).add_callback(
            lambda e: done.setdefault("f2", sim.now)
        )
        sim.run()
        assert done["f1"] == pytest.approx(2.0)
        assert done["f2"] == pytest.approx(2.0)

    def test_remaining_flow_speeds_up_after_completion(self):
        sim, net = make(10e6)
        done = {}
        net.transfer("a1", "b1", 5e6 / 8).add_callback(  # 5 Mbit
            lambda e: done.setdefault("small", sim.now)
        )
        net.transfer("a2", "b2", 10e6 / 8).add_callback(  # 10 Mbit
            lambda e: done.setdefault("big", sim.now)
        )
        sim.run()
        # Shared 5 Mbps each: small done at t=1. Big then gets 10 Mbps:
        # 5 Mbit remained -> 0.5 s more.
        assert done["small"] == pytest.approx(1.0)
        assert done["big"] == pytest.approx(1.5)

    def test_non_overlapping_flows_independent(self):
        sim, net = make(10e6)
        done = {}
        net.transfer("a1", "a2", 100e6 / 8).add_callback(  # stays on a-side
            lambda e: done.setdefault("left", sim.now)
        )
        net.transfer("b1", "b2", 100e6 / 8).add_callback(
            lambda e: done.setdefault("right", sim.now)
        )
        sim.run()
        assert done["left"] == pytest.approx(1.0)  # 100 Mbit over 50 Mbps share?
        assert done["right"] == pytest.approx(1.0)

    def test_link_load_accounting(self):
        sim, net = make(10e6)
        net.transfer("a1", "b1", 1e9)
        net.transfer("a2", "b2", 1e9)
        assert net.link_load("r1", "r2") == pytest.approx(10e6)
        assert net.link_utilization("r1", "r2") == pytest.approx(1.0)

    def test_link_no_flow_crosses_carries_zero(self):
        sim, net = make(10e6)
        net.transfer("a1", "a2", 1e9)  # never leaves the a-side
        for a, b in (("r1", "r2"), ("b1", "r2")):
            assert net.link_load(a, b) == 0
            assert net.link_utilization(a, b) == 0.0
        assert net.residual_bandwidth("b1", "b2") == 100e6
        with pytest.raises(NetworkError):
            net.link_load("a1", "b1")  # not a link at all

    def test_new_link_reroutes_new_flows_only(self):
        # the remembered routes go when the topology's version moves; a flow
        # in flight keeps the path it started on
        sim, net = make(10e6)
        _, old = net.start_transfer("a1", "b1", 1e9)
        net.topology.add_link("a1", "b1", 4e6)  # a shortcut
        _, new = net.start_transfer("a1", "b1", 1e9)
        assert [link.key for link in old.links] == [
            ("a1", "r1"),
            ("r1", "r2"),
            ("b1", "r2"),
        ]
        assert [link.key for link in new.links] == [("a1", "b1")]
        assert (old.rate, new.rate) == (10e6, 4e6)
        assert net.link_load("a1", "b1") == 4e6
        assert net.link_load("r1", "r2") == 10e6
        assert net.predicted_bandwidth("a1", "b1") == 2e6


class TestCrossTraffic:
    def test_capped_competitor_leaves_residual(self):
        sim, net = make(10e6)
        net.set_cross_traffic("comp", "a2", "b2", 9e6)
        assert net.residual_bandwidth("a1", "b1") == pytest.approx(1e6)

    def test_elastic_flow_squeezed_by_competition(self):
        sim, net = make(10e6)
        net.set_cross_traffic("comp", "a2", "b2", 9.99e6)
        done = []
        # 10 Kbps residual; 160 Kbit transfer takes ~16 s.
        net.transfer("a1", "b1", 20e3).add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(16.0, rel=1e-3)

    def test_rate_zero_removes_competitor(self):
        sim, net = make(10e6)
        net.set_cross_traffic("comp", "a2", "b2", 9e6)
        net.set_cross_traffic("comp", "a2", "b2", 0.0)
        assert net.residual_bandwidth("a1", "b1") == pytest.approx(10e6)

    def test_rate_update_applies_mid_transfer(self):
        sim, net = make(10e6)
        done = []
        net.transfer("a1", "b1", 10e6 / 8).add_callback(lambda e: done.append(sim.now))
        # At t=0.5 (5 Mbit moved), competition takes 5 Mbps; flow continues
        # at 5 Mbps: remaining 5 Mbit takes 1 s -> total 1.5 s.
        sim.schedule(0.5, net.set_cross_traffic, "comp", "a2", "b2", 5e6)
        sim.run()
        assert done[0] == pytest.approx(1.5, rel=1e-6)

    def test_competitor_is_unresponsive_priority_tier(self):
        sim, net = make(10e6)
        # Competitor demands 8 Mbps and does NOT yield; the two elastic
        # flows max-min share the remaining 2 Mbps (1 Mbps each).
        net.set_cross_traffic("comp", "a2", "b2", 8e6)
        net.transfer("a1", "b1", 1e9)
        net.transfer("a1", "b2", 1e9)
        rates = sorted(f.rate for f in net.flows)
        assert rates == pytest.approx([1e6, 1e6, 8e6])

    def test_elastic_flows_share_residual_fairly(self):
        sim, net = make(10e6)
        net.set_cross_traffic("comp", "a2", "b2", 9.99e6)
        net.transfer("a1", "b1", 1e9)
        net.transfer("a1", "b2", 1e9)
        elastic = [f.rate for f in net.active_transfers]
        assert elastic == pytest.approx([5e3, 5e3])

    def test_endpoint_change_rejected(self):
        sim, net = make()
        net.set_cross_traffic("c", "a1", "b1", 1e6)
        with pytest.raises(NetworkError):
            net.set_cross_traffic("c", "a2", "b2", 1e6)


class TestPredictedBandwidth:
    def test_idle_path_predicts_capacity(self):
        _, net = make(10e6)
        assert net.predicted_bandwidth("a1", "b1") == pytest.approx(10e6)

    def test_prediction_accounts_for_fair_share(self):
        sim, net = make(10e6)
        net.transfer("a2", "b2", 1e12)  # long-lived elastic flow at 10 Mbps
        assert net.predicted_bandwidth("a1", "b1") == pytest.approx(5e6)

    def test_prediction_does_not_disturb_flows(self):
        sim, net = make(10e6)
        net.transfer("a2", "b2", 1e12)
        before = [f.rate for f in net.flows]
        net.predicted_bandwidth("a1", "b1")
        assert [f.rate for f in net.flows] == before

    def test_local_prediction(self):
        _, net = make()
        assert net.predicted_bandwidth("a1", "a1") == pytest.approx(1e9)


class TestCancel:
    def test_cancel_fails_done_event_and_frees_bandwidth(self):
        sim, net = make(10e6)
        errors = []
        ev = net.transfer("a1", "b1", 1e9)
        ev.add_callback(lambda e: errors.append(e.ok))
        flow = net.active_transfers[0]
        assert net.cancel(flow) is True
        assert errors == [False]
        assert net.residual_bandwidth("a1", "b1") == pytest.approx(10e6)
        assert net.cancel(flow) is False
