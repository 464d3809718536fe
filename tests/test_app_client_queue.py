"""Unit tests for clients and the request-queue service."""

import pytest

from repro.app import Client, RequestQueueService
from repro.errors import EnvironmentError_
from repro.sim import Simulator
from repro.util.rng import SeedSequenceFactory
from repro.util.windows import StepFunction


def fixed_size(nbytes):
    return lambda t, rng: nbytes


def make_client(sim, rate=1.0, seed=7, name="C1", horizon_rate=None):
    rate_fn = horizon_rate or StepFunction([(0.0, rate)])
    return Client(
        sim,
        name,
        machine="mc1",
        rate=rate_fn,
        size_fn=fixed_size(20e3),
        rng=SeedSequenceFactory(seed).rng(f"client.{name}"),
    )


class TestClient:
    def test_issue_rate_roughly_matches_schedule(self):
        sim = Simulator()
        c = make_client(sim, rate=2.0)
        got = []
        c.connect(got.append)
        c.start(1000.0)
        sim.run(until=1000.0)
        assert 1700 <= c.issued <= 2300  # 2/s +- sampling noise
        assert len(got) == c.issued

    def test_request_sequence_deterministic_across_runs(self):
        def issue_times(seed):
            sim = Simulator()
            c = make_client(sim, seed=seed)
            times = []
            c.connect(lambda req: times.append((req.issued_at, req.response_size)))
            c.start(100.0)
            sim.run(until=100.0)
            return times

        assert issue_times(3) == issue_times(3)
        assert issue_times(3) != issue_times(4)

    def test_rate_change_applies(self):
        sim = Simulator()
        rate = StepFunction([(0.0, 1.0), (500.0, 10.0)])
        c = make_client(sim, horizon_rate=rate)
        stamps = []
        c.connect(lambda req: stamps.append(req.issued_at))
        c.start(1000.0)
        sim.run(until=1000.0)
        early = sum(1 for t in stamps if t < 500.0)
        late = sum(1 for t in stamps if t >= 500.0)
        assert late > 5 * early

    def test_zero_rate_pauses_until_next_phase(self):
        sim = Simulator()
        rate = StepFunction([(0.0, 0.0), (100.0, 1.0)])
        c = make_client(sim, horizon_rate=rate)
        stamps = []
        c.connect(lambda req: stamps.append(req.issued_at))
        c.start(200.0)
        sim.run(until=200.0)
        assert stamps and min(stamps) >= 100.0

    def test_requires_connection_before_start(self):
        sim = Simulator()
        c = make_client(sim)
        with pytest.raises(RuntimeError):
            c.start(10.0)

    def test_double_start_rejected(self):
        sim = Simulator()
        c = make_client(sim)
        c.connect(lambda r: None)
        c.start(10.0)
        with pytest.raises(RuntimeError):
            c.start(10.0)

    def test_deliver_records_latency(self):
        sim = Simulator()
        c = make_client(sim)
        inbox = []
        c.connect(inbox.append)
        c.start(5.0)
        sim.run(until=5.0)
        req = inbox[0]
        sim.run(until=req.issued_at + 6.0)
        # hand the response back 6 s after issue... deliver at current time
        before = sim.now
        req.completed_at = None
        c.deliver(req)
        assert c.received == 1
        assert c.completions[-1][1] == pytest.approx(before - req.issued_at)
        assert c.average_latency() == pytest.approx(before - req.issued_at)

    def test_request_latency_delays_routing(self):
        sim = Simulator()
        c = make_client(sim)
        arrivals = []
        c.connect(lambda req: arrivals.append((sim.now, req.issued_at)))
        c.start(5.0)
        sim.run(until=6.0)
        for arrived, issued in arrivals:
            assert arrived == pytest.approx(issued + 0.02)


class TestRequestQueueService:
    def _rq(self):
        sim = Simulator()
        rq = RequestQueueService(sim)
        rq.create_queue("SG1")
        rq.create_queue("SG2")
        return sim, rq

    def _req(self, client="C1"):
        from repro.app.messages import Request

        return Request(rid="r1", client=client, response_size=20e3)

    def test_routing_to_assigned_group(self):
        sim, rq = self._rq()
        rq.assign("C1", "SG1")
        req = self._req()
        rq.accept(req)
        assert req.group == "SG1"
        assert rq.queue_length("SG1") == 1
        assert rq.queue_length("SG2") == 0

    def test_move_client_affects_future_requests_only(self):
        sim, rq = self._rq()
        rq.assign("C1", "SG1")
        rq.accept(self._req())
        old = rq.move_client("C1", "SG2")
        assert old == "SG1"
        rq.accept(self._req())
        assert rq.queue_length("SG1") == 1  # old request stays
        assert rq.queue_length("SG2") == 1

    def test_duplicate_queue_rejected(self):
        _, rq = self._rq()
        with pytest.raises(EnvironmentError_):
            rq.create_queue("SG1")

    def test_unknown_group_rejected(self):
        _, rq = self._rq()
        with pytest.raises(EnvironmentError_):
            rq.queue("SG9")
        with pytest.raises(EnvironmentError_):
            rq.assign("C1", "SG9")

    def test_unassigned_client_rejected(self):
        _, rq = self._rq()
        with pytest.raises(EnvironmentError_):
            rq.accept(self._req())

    def test_enqueue_timestamp_and_group(self):
        sim, rq = self._rq()
        rq.assign("C1", "SG1")
        sim.schedule(4.0, rq.accept, self._req())
        sim.run()
        queued = rq.queue("SG1").items[0]
        assert (queued.group, queued.enqueued_at) == ("SG1", 4.0)
