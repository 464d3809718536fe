"""Unit tests for cross-traffic generators and the Remos stand-in."""

import pytest

from repro.errors import WorkloadError
from repro.net import CrossTrafficGenerator, FlowNetwork, RemosService, Topology
from repro.sim import Process, Simulator
from repro.util.windows import StepFunction


def simple_net():
    t = Topology()
    t.add_host("a")
    t.add_host("b")
    t.add_router("r")
    t.add_link("a", "r", 10e6)
    t.add_link("r", "b", 10e6)
    sim = Simulator()
    return sim, FlowNetwork(sim, t)


class TestCrossTrafficGenerator:
    def test_schedule_applied_at_breakpoints(self):
        sim, net = simple_net()
        sched = StepFunction([(0.0, 0.0), (10.0, 9e6), (20.0, 5e6), (30.0, 0.0)])
        gen = CrossTrafficGenerator(sim, net, "comp", "a", "b", sched, horizon=100.0)
        gen.start()
        sim.run(until=5.0)
        assert net.cross_traffic_rate("comp") == 0.0
        sim.run(until=15.0)
        assert net.cross_traffic_rate("comp") == 9e6
        sim.run(until=25.0)
        assert net.cross_traffic_rate("comp") == 5e6
        sim.run(until=35.0)
        assert net.cross_traffic_rate("comp") == 0.0

    def test_audit_trail(self):
        sim, net = simple_net()
        sched = StepFunction([(0.0, 1e6), (10.0, 2e6)])
        gen = CrossTrafficGenerator(sim, net, "c", "a", "b", sched, horizon=50.0)
        gen.start()
        sim.run(until=20.0)
        assert gen.applied == [(0.0, 1e6), (10.0, 2e6)]

    def test_double_start_rejected(self):
        sim, net = simple_net()
        gen = CrossTrafficGenerator(
            sim, net, "c", "a", "b", StepFunction([(0.0, 1.0)]), horizon=10.0
        )
        gen.start()
        with pytest.raises(WorkloadError):
            gen.start()

    def test_bad_horizon_rejected(self):
        sim, net = simple_net()
        with pytest.raises(WorkloadError):
            CrossTrafficGenerator(
                sim, net, "c", "a", "b", StepFunction([]), horizon=0.0
            )


class TestRemos:
    def test_first_query_is_cold(self):
        sim, net = simple_net()
        remos = RemosService(sim, net, cold_delay=90.0, warm_delay=0.5)
        answered = []

        def proc():
            bw = yield remos.get_flow("a", "b")
            answered.append((sim.now, bw))

        Process(sim, proc())
        sim.run()
        assert answered[0][0] == pytest.approx(90.0)
        assert answered[0][1] == pytest.approx(10e6)
        assert remos.stats.cold_queries == 1

    def test_second_query_is_warm(self):
        sim, net = simple_net()
        remos = RemosService(sim, net, cold_delay=90.0, warm_delay=0.5)
        times = []

        def proc():
            yield remos.get_flow("a", "b")
            t0 = sim.now
            yield remos.get_flow("a", "b")
            times.append(sim.now - t0)

        Process(sim, proc())
        sim.run()
        assert times == [pytest.approx(0.5)]
        assert remos.stats.warm_queries == 1

    def test_mean_latency_is_zero_before_any_query(self):
        _, net = simple_net()
        assert RemosService(Simulator(), net).stats.mean_latency == 0.0

    def test_mean_latency_averages_cold_and_warm_queries(self):
        sim, net = simple_net()
        remos = RemosService(sim, net, cold_delay=90.0, warm_delay=0.5)

        def proc():
            yield remos.get_flow("a", "b")
            yield remos.get_flow("b", "a")

        Process(sim, proc())
        sim.run()
        assert remos.stats.queries == 2
        assert remos.stats.mean_latency == pytest.approx((90.0 + 0.5) / 2)

    def test_pair_symmetry(self):
        sim, net = simple_net()
        remos = RemosService(sim, net)
        remos.prewarm([("a", "b")])
        assert remos.is_warm("b", "a")

    def test_prewarm_avoids_cold_delay(self):
        sim, net = simple_net()
        remos = RemosService(sim, net, cold_delay=90.0, warm_delay=0.5)
        remos.prewarm_all_hosts()
        assert remos.query_delay("a", "b") == 0.5

    def test_warm_expires_after_ttl(self):
        sim, net = simple_net()
        remos = RemosService(sim, net, cold_delay=10.0, warm_delay=0.1, warm_ttl=100.0)
        remos.prewarm([("a", "b")])
        sim.schedule(150.0, lambda: None)
        sim.run()
        assert remos.query_delay("a", "b") == 10.0

    def test_prediction_reflects_competition_at_answer_time(self):
        sim, net = simple_net()
        remos = RemosService(sim, net, cold_delay=0.0, warm_delay=2.0)
        remos.prewarm([("a", "b")])
        answered = []

        def proc():
            bw = yield remos.get_flow("a", "b")  # answers at t=2
            answered.append(bw)

        Process(sim, proc())
        sim.schedule(1.0, net.set_cross_traffic, "comp", "a", "b", 9e6)
        sim.run()
        assert answered[0] == pytest.approx(1e6)

    def test_invalid_parameters(self):
        sim, net = simple_net()
        with pytest.raises(ValueError):
            RemosService(sim, net, cold_delay=-1.0)
        with pytest.raises(ValueError):
            RemosService(sim, net, warm_ttl=0.0)
