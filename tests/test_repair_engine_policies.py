"""Unit tests for the §7 engine extensions: violation-selection policy
("fix the worst latency first") and the human-alert escalation."""

import pytest

from repro.constraints import ConstraintChecker
from repro.errors import RepairAborted, RepairError, ReproError
from repro.experiment import RunConfig
from repro.repair import ArchitectureManager, FirstSuccessStrategy, PythonTactic
from repro.sim import Simulator
from repro.styles import build_client_server_model


def system_with_latencies(latencies):
    s = build_client_server_model(
        "S",
        assignments={c: "SG1" for c in latencies},
        groups={"SG1": ["S1"], "SG2": ["S5"]},
    )
    for client, latency in latencies.items():
        s.connector(f"link_{client}").role("client").set_property(
            "averageLatency", latency
        )
    return s


def checker():
    c = ConstraintChecker(bindings={"maxLatency": 2.0})
    c.add_source("r", "averageLatency <= maxLatency",
                 scope_type="ClientRoleT", repair="fix")
    return c


def recording_strategy(log, applies=True):
    def script(ctx):
        log.append(ctx.bindings["__strategy_args__"][0].qualified_name)
        return applies

    return FirstSuccessStrategy("fix", [PythonTactic("t", script)])


class TestViolationPolicy:
    def test_first_policy_picks_first_reported(self):
        s = system_with_latencies({"C1": 3.0, "C2": 9.0, "C3": 5.0})
        sim = Simulator()
        log = []
        mgr = ArchitectureManager(sim, s, checker(), violation_policy="first",
                                  settle_time=0.0)
        mgr.register_strategy(recording_strategy(log))
        mgr.evaluate()
        sim.run()
        assert log == ["link_C1.client"]  # scope order, not severity

    def test_worst_policy_picks_highest_latency(self):
        s = system_with_latencies({"C1": 3.0, "C2": 9.0, "C3": 5.0})
        sim = Simulator()
        log = []
        mgr = ArchitectureManager(sim, s, checker(), violation_policy="worst",
                                  settle_time=0.0)
        mgr.register_strategy(recording_strategy(log))
        mgr.evaluate()
        sim.run()
        assert log == ["link_C2.client"]  # the paper's smarter selection

    def test_worst_policy_orders_successive_repairs(self):
        s = system_with_latencies({"C1": 3.0, "C2": 9.0})
        sim = Simulator()
        log = []

        def fixing_script(ctx):
            role = ctx.bindings["__strategy_args__"][0]
            log.append(role.qualified_name)
            role.set_property("averageLatency", 0.5)  # actually repair it
            return True

        mgr = ArchitectureManager(sim, s, checker(), violation_policy="worst",
                                  settle_time=0.0)
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("t", fixing_script)])
        )
        for _ in range(3):
            mgr.evaluate()
            sim.run()
        assert log == ["link_C2.client", "link_C1.client"]

    def test_invalid_policy_rejected(self):
        s = system_with_latencies({"C1": 3.0})
        with pytest.raises(RepairError):
            ArchitectureManager(Simulator(), s, checker(),
                                violation_policy="random")


class TestHumanAlert:
    def _aborting_manager(self, s, alert_after=3):
        sim = Simulator()

        def always_abort(ctx):
            raise RepairAborted("NoServerGroupFound")

        mgr = ArchitectureManager(
            sim, s, checker(), settle_time=0.0, failed_repair_cost=0.0,
            alert_after_aborts=alert_after,
        )
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("t", always_abort)])
        )
        return sim, mgr

    def test_alert_after_n_consecutive_aborts(self):
        s = system_with_latencies({"C1": 9.0})
        sim, mgr = self._aborting_manager(s, alert_after=3)
        for _ in range(3):
            mgr.evaluate()
            sim.run()
        assert mgr.human_alerts == 1
        alerts = mgr.trace.select("repair.human_alert")
        assert len(alerts) == 1
        assert alerts[0].data["scope"] == "link_C1.client"
        assert alerts[0].data["consecutive_aborts"] == 3

    def test_no_alert_below_threshold(self):
        s = system_with_latencies({"C1": 9.0})
        sim, mgr = self._aborting_manager(s, alert_after=5)
        for _ in range(4):
            mgr.evaluate()
            sim.run()
        assert mgr.human_alerts == 0

    def test_commit_resets_abort_streak(self):
        s = system_with_latencies({"C1": 9.0})
        sim = Simulator()
        outcomes = iter([False, False, True, False, False])

        def flaky(ctx):
            ok = next(outcomes)
            if not ok:
                raise RepairAborted("ModelError")
            return True

        mgr = ArchitectureManager(
            sim, s, checker(), settle_time=0.0, failed_repair_cost=0.0,
            alert_after_aborts=3,
        )
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("t", flaky)])
        )
        for _ in range(5):
            mgr.evaluate()
            sim.run()
        # streak: 2 aborts, commit resets, 2 aborts -> never reaches 3
        assert mgr.human_alerts == 0

    def test_alert_counter_resets_after_alert(self):
        s = system_with_latencies({"C1": 9.0})
        sim, mgr = self._aborting_manager(s, alert_after=2)
        for _ in range(4):
            mgr.evaluate()
            sim.run()
        assert mgr.human_alerts == 2  # alerts at abort 2 and abort 4


class TestScheduledWaits:
    """``settle_time`` and ``failed_repair_cost`` are waits the engine
    schedules: a negative one would land in the past at the first repair
    that settles or aborts, so the engine and the config refuse it."""

    @pytest.mark.parametrize("knob", ["settle_time", "failed_repair_cost"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_the_engine_refuses_a_negative_wait(self, knob, value):
        s = system_with_latencies({"C1": 9.0})
        with pytest.raises(RepairError, match=knob):
            ArchitectureManager(Simulator(), s, checker(), **{knob: value})

    @pytest.mark.parametrize("knob", ["settle_time", "failed_repair_cost"])
    @pytest.mark.parametrize("name", ["master_worker", "pipeline", "client_server"])
    def test_the_config_refuses_a_negative_wait(self, knob, name):
        with pytest.raises(ReproError, match=knob):
            RunConfig.adapted(name).but(**{knob: -1.0}).resolved()

    @pytest.mark.parametrize("cost", [0.0, 4.0])
    def test_an_aborted_repair_ends_after_its_cost(self, cost):
        s = system_with_latencies({"C1": 9.0})
        sim = Simulator()

        def always_abort(ctx):
            raise RepairAborted("NoServerGroupFound")

        mgr = ArchitectureManager(sim, s, checker(), settle_time=0.0,
                                  failed_repair_cost=cost)
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("t", always_abort)])
        )
        mgr.evaluate()
        sim.run()
        [record] = list(mgr.history)
        assert not record.committed
        assert (record.started, record.ended) == (0.0, cost)

    @pytest.mark.parametrize("name", ["master_worker", "pipeline", "client_server"])
    def test_the_config_accepts_zero_waits(self, name):
        config = RunConfig.adapted(name).but(settle_time=0.0, failed_repair_cost=0.0)
        params = config.resolved().params
        assert (params.settle_time, params.failed_repair_cost) == (0.0, 0.0)
