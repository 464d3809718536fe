"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, seen.append, "a")
        sim.schedule(3.0, seen.append, "b")
        sim.run()
        assert seen == ["b", "a"]
        assert sim.now == 5.0

    def test_same_time_fifo_order(self):
        sim = Simulator()
        seen = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, seen.append, tag)
        sim.run()
        assert seen == ["first", "second", "third"]

    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_executes_boundary_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, seen.append, "edge")
        sim.run(until=10.0)
        assert seen == ["edge"]

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(11.0, seen.append, "later")
        sim.run(until=10.0)
        assert seen == []
        sim.run(until=12.0)
        assert seen == ["later"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.schedule(4.0, lambda: None)
        assert sim.peek() == 4.0

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(2.0, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 3.0)]


class TestEvents:
    def test_succeed_value_and_callback(self):
        sim = Simulator()
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        assert got == [42]
        assert ev.triggered and ev.ok and ev.value == 42

    def test_late_callback_fires_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("x")
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == ["x"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_carries_exception(self):
        sim = Simulator()
        ev = sim.event()
        exc = ValueError("boom")
        ev.fail(exc)
        assert not ev.ok
        assert ev.value is exc

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_timeout_fires_at_delay(self):
        sim = Simulator()
        t = sim.timeout(7.5, value="done")
        fired = []
        t.add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [7.5]
        assert t.value == "done"

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timeout(-0.1)
