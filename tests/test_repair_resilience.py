"""Resilient repair execution: timeouts, retries, breakers, quarantine.

All against the toy client/server model from the engine unit tests, with
scripted translators standing in for the fault plane's effector sabotage
— the engine only ever sees ``on_done(error)``, so these tests drive its
failure paths directly and deterministically.
"""

import pytest

from repro.constraints import ConstraintChecker
from repro.errors import RepairError
from repro.repair import (
    ArchitectureManager,
    FirstSuccessStrategy,
    PythonTactic,
    RepairContext,
)
from repro.repair.history import RepairHistory, RepairRecord
from repro.repair.resilience import (
    BreakerPolicy,
    QuarantinePolicy,
    RetryPolicy,
)
from repro.sim import Simulator
from repro.styles import build_client_server_model

SCOPE = "link_C1.client"


def make_system(load=0.0, latency=5.0):
    s = build_client_server_model(
        "S", assignments={"C1": "SG1"}, groups={"SG1": ["S1"], "SG2": ["S5"]}
    )
    s.component("SG1").set_property("load", load)
    s.connector("link_C1").role("client").set_property("averageLatency", latency)
    return s


def make_checker():
    checker = ConstraintChecker(bindings={"maxLatency": 2.0})
    checker.add_source(
        "r",
        "averageLatency <= maxLatency",
        scope_type="ClientRoleT",
        repair="fix",
    )
    return checker


def touching_tactic(name="primary"):
    """Edits the model (observable rollback) and emits one intent."""

    def script(ctx: RepairContext) -> bool:
        ctx.system.component("SG1").set_property("load", 99.0)
        ctx.intend("addServer", client="C1", group="SG1", server="S9")
        return True

    return PythonTactic(name, script)


def intentless_tactic(name="fallback"):
    """Applies without intents: succeeds regardless of the translator."""
    return PythonTactic(name, lambda ctx: True)


class HangTranslator:
    """Never completes — the effector hung."""

    def __init__(self):
        self.calls = 0

    def execute(self, intents, on_done=None):
        self.calls += 1


class FlakyTranslator:
    """Fails the first ``failures`` executions, then succeeds."""

    def __init__(self, sim, delay=1.0, failures=0):
        self.sim = sim
        self.delay = delay
        self.failures = failures
        self.calls = 0

    def execute(self, intents, on_done=None):
        self.calls += 1
        error = "EffectorRaise:addServer" if self.failures > 0 else None
        if self.failures > 0:
            self.failures -= 1
        if on_done is not None:
            self.sim.schedule(self.delay, on_done, error)


#: the scheduling policy ``make_engine`` builds.  Every engine test below
#: runs twice: as written (serial) and again from the ``*Disjoint``
#: subclasses at the bottom, which take the same failure paths through
#: the disjoint policy.  Assertions therefore stay mode-independent
#: (``busy``, history, model state — never ``inflight``).
CONCURRENCY = "serial"


@pytest.fixture(autouse=True)
def engine_concurrency(request, monkeypatch):
    """Point ``make_engine`` at the running test class's policy."""
    mode = getattr(request.cls, "concurrency", "serial")
    monkeypatch.setitem(globals(), "CONCURRENCY", mode)


def make_engine(system, sim, translator=None, settle=0.0, **opts):
    opts.setdefault("concurrency", CONCURRENCY)
    return ArchitectureManager(
        sim,
        system,
        make_checker(),
        translator=translator,
        settle_time=settle,
        **opts,
    )


def load_of(system):
    return system.component("SG1").get_property("load")


# ---------------------------------------------------------------------------
# two-phase commit ordering
# ---------------------------------------------------------------------------

class TestTwoPhase:
    def test_make_engine_builds_the_class_policy(self):
        mgr = make_engine(make_system(), Simulator())
        assert mgr.concurrency == getattr(self, "concurrency", "serial")

    def test_legacy_path_commits_before_translation(self):
        sim = Simulator()
        system = make_system()
        mgr = make_engine(system, sim, FlakyTranslator(sim, delay=5.0))
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        record = mgr.evaluate()
        # no resilience options: the original commit-then-translate order
        assert record.committed
        assert load_of(system) == 99.0

    def test_two_phase_commits_only_after_translation(self):
        sim = Simulator()
        system = make_system()
        mgr = make_engine(
            system, sim, FlakyTranslator(sim, delay=5.0), repair_timeout=60.0
        )
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        record = mgr.evaluate()
        assert not record.committed  # transaction held open
        assert load_of(system) == 99.0  # applied but uncommitted
        sim.run(until=6.0)
        assert record.committed
        assert record.ended == pytest.approx(5.0)
        assert load_of(system) == 99.0
        assert [r.time for r in mgr.trace.select("repair.committed")] == [5.0]

    def test_one_phase_effector_failure_keeps_commit_and_counts(self):
        """Without resilience options a late effector error cannot undo
        the committed model change — it is counted and traced instead
        (the model/runtime divergence the gauges must re-detect)."""
        sim = Simulator()
        system = make_system()
        mgr = make_engine(system, sim, FlakyTranslator(sim, failures=1))
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        record = mgr.evaluate()
        sim.run(until=2.0)
        assert record.committed
        assert load_of(system) == 99.0
        assert mgr.effector_failures == 1
        assert mgr.repair_stats()["effector_failures"] == 1
        assert mgr.trace.select("repair.effector_failure")


# ---------------------------------------------------------------------------
# repair timeout
# ---------------------------------------------------------------------------

class TestTimeout:
    def test_timeout_aborts_transaction_and_restores_model(self):
        sim = Simulator()
        system = make_system()
        translator = HangTranslator()
        mgr = make_engine(system, sim, translator, repair_timeout=10.0)
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        record = mgr.evaluate()
        assert load_of(system) == 99.0  # in flight, uncommitted
        sim.run(until=30.0)
        assert record.timed_out
        assert not record.committed
        assert record.abort_reason == "Timeout"
        assert record.ended == pytest.approx(10.0)
        assert load_of(system) == 0.0  # undo log restored the model
        assert mgr.repair_stats()["timeouts"] == 1
        assert mgr.trace.select("repair.timeout")
        assert not mgr.busy  # the slot was freed — the only escape
        assert len(mgr.history) == 1

    def test_timeout_recurs_across_retries(self):
        sim = Simulator()
        system = make_system()
        mgr = make_engine(
            system,
            sim,
            HangTranslator(),
            repair_timeout=10.0,
            retry_policy=RetryPolicy(
                max_attempts=3, backoff=5.0, multiplier=2.0, jitter=0.0
            ),
        )
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        mgr.evaluate()
        sim.run(until=200.0)
        records = list(mgr.history)
        # t=0 deadline 10, retry at 15 deadline 25, retry at 35 deadline 45
        assert [r.attempt for r in records] == [1, 2, 3]
        assert all(r.timed_out for r in records)
        assert [r.started for r in records] == [0.0, 15.0, 35.0]
        assert mgr.timeouts == 3
        assert mgr.retries == 2
        assert load_of(system) == 0.0


# ---------------------------------------------------------------------------
# retry with backoff
# ---------------------------------------------------------------------------

class TestRetry:
    def test_backoff_schedule_and_attempt_numbering(self):
        sim = Simulator()
        system = make_system()
        translator = FlakyTranslator(sim, delay=1.0, failures=2)
        mgr = make_engine(
            system,
            sim,
            translator,
            retry_policy=RetryPolicy(
                max_attempts=3, backoff=5.0, multiplier=2.0, jitter=0.0
            ),
        )
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        mgr.evaluate()
        sim.run(until=100.0)
        records = list(mgr.history)
        assert [r.attempt for r in records] == [1, 2, 3]
        # jitter=0: exact exponential schedule 5, then 5*2
        assert records[0].retry_backoff == pytest.approx(5.0)
        assert records[1].retry_backoff == pytest.approx(10.0)
        assert records[2].retry_backoff is None
        # fail at t=1, retry at 6 fails at 7, retry at 17 commits at 18
        assert [r.started for r in records] == [0.0, 6.0, 17.0]
        assert records[2].committed
        assert records[2].ended == pytest.approx(18.0)
        assert not records[0].committed and not records[1].committed
        assert mgr.retries == 2
        assert load_of(system) == 99.0  # the surviving attempt's commit

    def test_jittered_backoff_is_seeded_and_reproducible(self):
        def backoffs():
            sim = Simulator()
            mgr = make_engine(
                make_system(),
                sim,
                FlakyTranslator(sim, failures=2),
                retry_policy=RetryPolicy(
                    max_attempts=3, backoff=5.0, jitter=0.5, seed=9
                ),
            )
            mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
            mgr.evaluate()
            sim.run(until=200.0)
            return [(r.started, r.attempt, r.retry_backoff) for r in mgr.history]

        first = backoffs()
        assert first == backoffs()
        # jitter stretches each wait beyond its exponential base
        assert first[0][2] > 5.0
        assert first[1][2] > 10.0

    def test_retry_skipped_when_violation_heals_during_backoff(self):
        sim = Simulator()
        system = make_system()
        mgr = make_engine(
            system,
            sim,
            FlakyTranslator(sim, delay=1.0, failures=5),
            retry_policy=RetryPolicy(max_attempts=3, backoff=5.0, jitter=0.0),
        )
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        mgr.evaluate()
        # attempt 1 fails at t=1; the latency recovers before the t=6 retry
        sim.schedule(
            3.0,
            lambda: system.connector("link_C1").role("client").set_property(
                "averageLatency", 1.0
            ),
        )
        sim.run(until=100.0)
        assert len(mgr.history) == 1  # no second attempt ran
        assert mgr.trace.select("repair.retry_skip")
        assert not mgr.busy  # the serial slot was released

    def test_retry_exhaustion_concludes_the_repair(self):
        sim = Simulator()
        mgr = make_engine(
            make_system(),
            sim,
            FlakyTranslator(sim, failures=99),
            retry_policy=RetryPolicy(max_attempts=2, backoff=5.0, jitter=0.0),
        )
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        mgr.evaluate()
        sim.run(until=100.0)
        records = list(mgr.history)
        assert [r.attempt for r in records] == [1, 2]
        assert records[-1].retry_backoff is None  # attempts exhausted
        assert not any(r.committed for r in records)
        assert not mgr.busy


# ---------------------------------------------------------------------------
# circuit breakers
# ---------------------------------------------------------------------------

class TestBreaker:
    def test_open_breaker_routes_to_next_tactic(self):
        sim = Simulator()
        system = make_system()
        translator = FlakyTranslator(sim, delay=1.0, failures=99)
        mgr = make_engine(
            system,
            sim,
            translator,
            breaker_policy=BreakerPolicy(failure_threshold=2, reset_timeout=50.0),
        )
        mgr.register_strategy(
            FirstSuccessStrategy(
                "fix", [touching_tactic("primary"), intentless_tactic()]
            )
        )
        mgr.evaluate()  # failure 1 at t=1
        sim.run(until=1.5)
        mgr.evaluate()  # failure 2 at t=2.5 -> breaker opens
        sim.run(until=3.0)
        assert mgr.trace.select("repair.breaker_open")
        assert mgr.breakers.states() == {f"primary@{SCOPE}": "open"}
        third = mgr.evaluate()  # primary rejected, fallback commits
        sim.run(until=4.0)
        assert third.committed
        assert third.tactic_applied == "fallback"
        stats = mgr.repair_stats()
        assert stats["breaker_opened"] == 1
        assert stats["breaker_rejections"] >= 1
        assert stats["breakers_open"] == 1

    def test_half_open_probe_reopens_then_recovers(self):
        sim = Simulator()
        system = make_system()
        translator = FlakyTranslator(sim, delay=1.0, failures=99)
        mgr = make_engine(
            system,
            sim,
            translator,
            breaker_policy=BreakerPolicy(failure_threshold=1, reset_timeout=50.0),
        )
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [touching_tactic("primary")])
        )
        mgr.evaluate()  # failure at t=1 -> open until 51
        sim.run(until=60.0)
        mgr.evaluate()  # half-open probe; still failing -> reopen
        sim.run(until=62.0)
        assert mgr.breakers.states() == {f"primary@{SCOPE}": "open"}
        assert mgr.repair_stats()["breaker_opened"] == 2
        translator.failures = 0  # the effector comes back
        sim.run(until=120.0)  # past the second reset window (61+50)
        record = mgr.evaluate()  # half-open probe succeeds -> closed
        sim.run(until=125.0)
        assert record.committed
        assert mgr.breakers.states() == {f"primary@{SCOPE}": "closed"}
        stats = mgr.repair_stats()
        assert stats["breaker_recoveries"] == 1
        assert stats["breakers_open"] == 0
        categories = [
            r.category for r in mgr.trace.records
            if r.category.startswith("repair.breaker")
        ]
        assert categories == [
            "repair.breaker_open",
            "repair.breaker_half_open",
            "repair.breaker_open",
            "repair.breaker_half_open",
            "repair.breaker_closed",
        ]

    def test_open_breaker_with_no_fallback_escalates_to_human_alert(self):
        sim = Simulator()
        mgr = make_engine(
            make_system(),
            sim,
            FlakyTranslator(sim, delay=1.0, failures=99),
            breaker_policy=BreakerPolicy(failure_threshold=1, reset_timeout=500.0),
            alert_after_aborts=2,
        )
        mgr.register_strategy(
            FirstSuccessStrategy("fix", [touching_tactic("primary")])
        )
        mgr.evaluate()  # failure at t=1 opens the breaker (abort 1)
        sim.run(until=2.0)
        mgr.evaluate()  # only tactic rejected -> ModelError abort (abort 2)
        sim.run(until=10.0)
        assert mgr.human_alerts == 1
        assert mgr.trace.select("repair.human_alert")
        records = list(mgr.history)
        assert records[-1].abort_reason == "ModelError"


# ---------------------------------------------------------------------------
# quarantine
# ---------------------------------------------------------------------------

class TestQuarantine:
    def test_quarantine_skips_scope_then_readmits_with_growing_period(self):
        sim = Simulator()
        system = make_system()
        mgr = make_engine(
            system,
            sim,
            FlakyTranslator(sim, delay=1.0, failures=99),
            quarantine_policy=QuarantinePolicy(
                after_failures=1, period=50.0, multiplier=2.0, max_period=900.0
            ),
        )
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        mgr.evaluate()  # failure at t=1 -> quarantined until 51
        sim.run(until=2.0)
        assert mgr.quarantined_scopes() == {SCOPE: pytest.approx(51.0)}
        assert mgr.evaluate() is None  # skipped while quarantined
        assert mgr.repair_stats()["quarantine_skips"] == 1
        sim.run(until=60.0)
        record = mgr.evaluate()  # period lapsed: re-admitted
        assert record is not None
        sim.run(until=62.0)  # fails again -> round 2, period doubles
        assert mgr.quarantined_scopes() == {SCOPE: pytest.approx(161.0)}
        stats = mgr.repair_stats()
        assert stats["quarantines"] == 2
        assert stats["quarantined_now"] == 1
        assert len(mgr.trace.select("repair.quarantine")) == 2

    def test_successful_repair_clears_the_failure_count(self):
        sim = Simulator()
        mgr = make_engine(
            make_system(),
            sim,
            FlakyTranslator(sim, delay=1.0, failures=1),
            quarantine_policy=QuarantinePolicy(after_failures=2, period=50.0),
        )
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        mgr.evaluate()  # failure 1 at t=1
        sim.run(until=2.0)
        mgr.evaluate()  # succeeds: the ledger resets
        sim.run(until=4.0)
        mgr.evaluate()  # were the count sticky, this failure would trip it
        sim.run(until=6.0)
        assert mgr.repair_stats()["quarantines"] == 0
        assert mgr.quarantined_scopes() == {}

    def test_lapsed_quarantine_of_a_healed_scope_is_not_reported(self):
        sim = Simulator()
        system = make_system()
        mgr = make_engine(
            system,
            sim,
            FlakyTranslator(sim, delay=1.0, failures=99),
            quarantine_policy=QuarantinePolicy(after_failures=1, period=50.0),
        )
        mgr.register_strategy(FirstSuccessStrategy("fix", [touching_tactic()]))
        mgr.evaluate()  # failure at t=1 -> quarantined until 51
        sim.run(until=2.0)
        assert mgr.repair_stats()["quarantined_now"] == 1
        # the scope heals by itself, so it never violates again and no
        # later evaluation walks over its entry
        role = system.connector("link_C1").role("client")
        role.set_property("averageLatency", 1.0)
        sim.run(until=51.0)  # the period lapses exactly now
        assert mgr.evaluate() is None
        assert mgr.quarantined_scopes() == {}
        assert mgr.repair_stats()["quarantined_now"] == 0


# ---------------------------------------------------------------------------
# history capacity
# ---------------------------------------------------------------------------

class TestHistoryCapacity:
    def test_fifo_eviction_and_counter(self):
        history = RepairHistory(capacity=2)
        for t in (1.0, 2.0, 3.0):
            history.append(RepairRecord(started=t, strategy="fix"))
        assert len(history) == 2
        assert [r.started for r in history] == [2.0, 3.0]
        assert history.evicted == 1

    def test_unbounded_by_default(self):
        history = RepairHistory()
        for t in range(100):
            history.append(RepairRecord(started=float(t), strategy="fix"))
        assert len(history) == 100
        assert history.evicted == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            RepairHistory(capacity=0)

    def test_engine_wires_capacity_through(self):
        sim = Simulator()
        mgr = make_engine(make_system(), sim, history_capacity=1)
        mgr.register_strategy(FirstSuccessStrategy("fix", [intentless_tactic()]))
        mgr.evaluate()
        sim.run(until=1.0)
        sim.run(until=30.0)
        mgr.evaluate()  # second repair evicts the first record
        sim.run(until=31.0)
        assert len(mgr.history) == 1
        assert mgr.repair_stats()["history_evicted"] == 1


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidation:
    @pytest.mark.parametrize("policy", [
        RetryPolicy(max_attempts=0),
        RetryPolicy(backoff=0.0),
        RetryPolicy(multiplier=0.5),
        RetryPolicy(jitter=1.5),
        BreakerPolicy(failure_threshold=0),
        BreakerPolicy(reset_timeout=0.0),
        QuarantinePolicy(after_failures=0),
        QuarantinePolicy(period=0.0),
        QuarantinePolicy(multiplier=0.5),
        QuarantinePolicy(period=100.0, max_period=50.0),
    ])
    def test_bad_policies_rejected(self, policy):
        with pytest.raises(ValueError):
            policy.validate()

    def test_engine_rejects_bad_resilience_config(self):
        sim = Simulator()
        with pytest.raises(RepairError, match="repair_timeout"):
            make_engine(make_system(), sim, repair_timeout=0.0)
        with pytest.raises(ValueError, match="max_attempts"):
            make_engine(
                make_system(),
                Simulator(),
                retry_policy=RetryPolicy(max_attempts=0),
            )
        with pytest.raises(ValueError, match="failure_threshold"):
            make_engine(
                make_system(),
                Simulator(),
                breaker_policy=BreakerPolicy(failure_threshold=0),
            )
        with pytest.raises(ValueError, match="after_failures"):
            make_engine(
                make_system(),
                Simulator(),
                quarantine_policy=QuarantinePolicy(after_failures=0),
            )


# ---------------------------------------------------------------------------
# the same suite through the disjoint policy
# ---------------------------------------------------------------------------
# Subclasses, not a parametrised fixture, so the serial ids keep their names.


class TestTwoPhaseDisjoint(TestTwoPhase):
    concurrency = "disjoint"


class TestTimeoutDisjoint(TestTimeout):
    concurrency = "disjoint"


class TestRetryDisjoint(TestRetry):
    concurrency = "disjoint"


class TestBreakerDisjoint(TestBreaker):
    concurrency = "disjoint"


class TestQuarantineDisjoint(TestQuarantine):
    concurrency = "disjoint"


class TestHistoryCapacityDisjoint(TestHistoryCapacity):
    concurrency = "disjoint"


class TestValidationDisjoint(TestValidation):
    concurrency = "disjoint"
