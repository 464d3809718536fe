"""Unit tests for the architecture manager (repair engine) and history."""

import pytest

from repro.constraints import ConstraintChecker
from repro.errors import RepairAborted, RepairError
from repro.repair import (
    ArchitectureManager,
    FirstSuccessStrategy,
    PythonTactic,
    RepairContext,
)
from repro.repair.history import RepairHistory, RepairRecord
from repro.repair.strategy import AllApplicableStrategy, RepairOutcome
from repro.repair.transactions import ModelTransaction
from repro.sim import Simulator
from repro.styles import build_client_server_model


def make_system(load=0.0, latency=1.0):
    s = build_client_server_model(
        "S", assignments={"C1": "SG1"}, groups={"SG1": ["S1"], "SG2": ["S5"]}
    )
    s.component("SG1").set_property("load", load)
    s.connector("link_C1").role("client").set_property("averageLatency", latency)
    return s


def make_checker():
    checker = ConstraintChecker(bindings={"maxLatency": 2.0})
    checker.add_source(
        "r", "averageLatency <= maxLatency",
        scope_type="ClientRoleT", repair="fix",
    )
    return checker


def noop_tactic(applies=True, intents=0):
    def script(ctx: RepairContext) -> bool:
        for _ in range(intents):
            ctx.intend("addServer", client="C1", group="SG1", server="S9")
        return applies

    return PythonTactic("noop", script)


class FakeTranslator:
    """Records intents; completes after a fixed delay."""

    def __init__(self, sim, delay=30.0):
        self.sim = sim
        self.delay = delay
        self.executed = []

    def execute(self, intents, on_done=None):
        self.executed.append(list(intents))
        self.sim.schedule(self.delay, on_done or (lambda: None))


class TestEngine:
    def _engine(self, system, sim=None, translator=None, settle=20.0):
        sim = sim or Simulator()
        mgr = ArchitectureManager(
            sim, system, make_checker(), translator=translator,
            settle_time=settle,
        )
        return sim, mgr

    def test_healthy_model_no_repair(self):
        sim, mgr = self._engine(make_system(latency=1.0))
        mgr.register_strategy(FirstSuccessStrategy("fix", [noop_tactic()]))
        assert mgr.evaluate() is None
        assert len(mgr.history) == 0

    def test_violation_dispatches_strategy(self):
        sim, mgr = self._engine(make_system(latency=5.0))
        mgr.register_strategy(FirstSuccessStrategy("fix", [noop_tactic()]))
        record = mgr.evaluate()
        assert record is not None
        assert record.strategy == "fix"
        assert record.scope == "link_C1.client"
        sim.run()
        assert record.committed
        assert record.ended is not None

    def test_busy_engine_skips_evaluation(self):
        sim = Simulator()
        translator = FakeTranslator(sim, delay=30.0)
        sim, mgr = self._engine(make_system(latency=5.0), sim, translator)
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [noop_tactic(intents=1)])
        )
        first = mgr.evaluate()
        assert first is not None
        assert mgr.busy
        assert mgr.evaluate() is None  # busy: repair in flight
        sim.run(until=31.0)
        assert not mgr.busy

    def test_settle_time_suppresses_reevaluation(self):
        sim = Simulator()
        sim, mgr = self._engine(make_system(latency=5.0), sim, settle=20.0)
        mgr.register_strategy(FirstSuccessStrategy("fix", [noop_tactic()]))
        mgr.evaluate()
        sim.run(until=5.0)  # finish (no intents -> immediate)
        assert mgr.evaluate() is None  # inside settle window
        sim.run(until=30.0)
        assert mgr.evaluate() is not None  # settle expired, still violated

    def test_aborted_repair_rolls_back_and_records(self):
        system = make_system(latency=5.0)

        def bad_script(ctx):
            ctx.system.component("SG1").set_property("load", 99.0)
            raise RepairAborted("NoServerGroupFound")

        sim, mgr = self._engine(system)
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [PythonTactic("bad", bad_script)])
        )
        record = mgr.evaluate()
        sim.run()
        assert record is not None and not record.committed
        assert record.abort_reason == "NoServerGroupFound"
        assert system.component("SG1").get_property("load") == 0.0  # rolled back

    def test_tactic_failure_then_abort_reason_model_error(self):
        sim, mgr = self._engine(make_system(latency=5.0))
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [noop_tactic(applies=False)])
        )
        record = mgr.evaluate()
        sim.run()
        assert record.abort_reason == "ModelError"

    def test_translator_receives_intents(self):
        sim = Simulator()
        translator = FakeTranslator(sim)
        sim, mgr = self._engine(make_system(latency=5.0), sim, translator)
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [noop_tactic(intents=2)])
        )
        record = mgr.evaluate()
        sim.run()
        assert len(translator.executed[0]) == 2
        assert record.duration == pytest.approx(30.0)

    def test_unhandled_violation_traced(self):
        system = make_system(latency=5.0)
        sim = Simulator()
        mgr = ArchitectureManager(sim, system, make_checker())
        assert mgr.evaluate() is None  # no strategy registered
        assert mgr.trace.select("constraint.violation.unhandled")

    def test_duplicate_strategy_rejected(self):
        sim, mgr = self._engine(make_system())
        mgr.register_strategy(FirstSuccessStrategy("fix", []))
        with pytest.raises(RepairError):
            mgr.register_strategy(FirstSuccessStrategy("fix", []))


def set_tactic(name, prop, value, applies=True):
    def script(ctx: RepairContext) -> bool:
        ctx.system.component("SG1").set_property(prop, value)
        return applies

    return PythonTactic(name, script)


def transactional_context(system):
    """A context over an open transaction, as the engine builds one."""
    return RepairContext(system, transaction=ModelTransaction(system).begin())


class TestAllApplicableStrategy:
    def test_commits_every_tactic_that_applied(self):
        s = make_system(load=0.5)
        strategy = AllApplicableStrategy(
            "fixAll",
            [set_tactic("a", "load", 1.0),
             set_tactic("b", "load", 9.0, applies=False),
             set_tactic("c", "replication", 3)],
        )
        outcome = strategy.run(transactional_context(s))
        assert outcome.committed
        assert outcome.tactics_tried == ["a", "b", "c"]
        assert outcome.tactic_applied == "a+c"
        group = s.component("SG1")
        # b did not apply, so its edit is undone and a's stays
        assert group.get_property("load") == 1.0
        assert group.get_property("replication") == 3

    def test_aborts_with_its_reason_when_no_tactic_applied(self):
        s = make_system(load=0.5)
        strategy = AllApplicableStrategy(
            "fixAll",
            [set_tactic("a", "load", 1.0, applies=False),
             set_tactic("b", "load", 2.0, applies=False)],
            abort_reason="NoServerGroupFound",
        )
        ctx = transactional_context(s)
        with pytest.raises(RepairAborted) as info:
            strategy.run(ctx)
        assert info.value.reason == "NoServerGroupFound"
        assert ctx.tactic_footprints == []
        assert s.component("SG1").get_property("load") == 0.5


@pytest.mark.parametrize(
    "outcome, line",
    [
        (RepairOutcome(True, "fix", tactic_applied="moveClient"),
         "fix: committed via moveClient"),
        (RepairOutcome(False, "fix", abort_reason="NoServerGroupFound"),
         "fix: aborted (NoServerGroupFound)"),
    ],
    ids=["committed", "aborted"],
)
def test_repair_outcome_reads_as_one_line(outcome, line):
    assert str(outcome) == line


class TestHistory:
    def _record(self, t, committed=True, tactic="moveClient", intents=()):
        r = RepairRecord(started=t, strategy="fix", committed=committed,
                         tactic_applied=tactic)
        r.ended = t + 30.0
        r.intents = list(intents)
        return r

    def test_mean_duration(self):
        h = RepairHistory()
        h.append(self._record(0.0))
        h.append(self._record(100.0))
        assert h.mean_duration() == pytest.approx(30.0)

    def test_moves_and_oscillation(self):
        from repro.repair.context import RuntimeIntent

        h = RepairHistory()
        moves = [
            ("SG1", "SG2"), ("SG2", "SG1"), ("SG1", "SG2"),
        ]
        for i, (frm, to) in enumerate(moves):
            h.append(self._record(
                float(i * 100),
                intents=[RuntimeIntent("moveClient",
                                       {"client": "C3", "frm": frm, "to": to})],
            ))
        assert len(h.client_moves()) == 3
        assert h.oscillation_count("C3") == 2  # returned to SG1 and to SG2
        assert h.oscillation_count("C1") == 0

    def test_server_activations(self):
        from repro.repair.context import RuntimeIntent

        h = RepairHistory()
        h.append(self._record(
            650.0, tactic="fixServerLoad",
            intents=[RuntimeIntent("addServer", {"server": "S4", "group": "SG1"})],
        ))
        assert h.server_activations() == [(650.0, "S4", "SG1")]

    def test_tactic_counts(self):
        h = RepairHistory()
        h.append(self._record(0.0, tactic="fixServerLoad"))
        h.append(self._record(1.0, tactic="fixBandwidth"))
        h.append(self._record(2.0, tactic="fixBandwidth"))
        h.append(self._record(3.0, committed=False, tactic=None))
        assert h.tactic_counts() == {"fixServerLoad": 1, "fixBandwidth": 2}
