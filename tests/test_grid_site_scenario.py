"""The ``grid_site`` scenario: failing sites, resilient repairs, ≥2x win."""

import pytest

from repro import api
from repro.api import RunConfig
from repro.app.grid_site_app import GridSiteApplication
from repro.errors import EnvironmentError_, ReproError
from repro.experiment.grid_site_scenario import (
    GridSiteExperiment,
    GridSiteParams,
    GridSiteResult,
)
from repro.sim import Simulator
from repro.util.rng import SeedSequenceFactory

SITES = [("siteA", 1, 2), ("siteB", 1, 2), ("siteC", 1, 1)]


@pytest.fixture(scope="module")
def pair():
    return {
        "adapted": api.run(RunConfig.adapted("grid_site")),
        "control": api.run(RunConfig.control("grid_site")),
    }


class TestRegistration:
    def test_registered_through_public_api(self):
        entries = {e["name"]: e for e in api.list_scenarios()}
        assert "grid_site" in entries
        assert entries["grid_site"]["params"]["sites"] == 5
        assert entries["grid_site"]["params"]["faults_enabled"] is True

    def test_params_validation(self):
        cases = [
            ({"sites": 0}, "sites"),
            ({"flaky_sites": 9}, "flaky_sites"),
            ({"site_mtbf": 0.0}, "site_mtbf"),
            ({"effector_fail_prob": 1.5}, "effector_fail_prob"),
            (
                {
                    "effector_fail_prob": 0.5,
                    "effector_noop_prob": 0.5,
                    "effector_hang_prob": 0.5,
                },
                "effector_noop_prob, effector_hang_prob: .* must be <= 1",
            ),
            ({"retry_attempts": 0}, "retry_attempts"),
            ({"breaker_reset": 0.0}, "breaker_reset"),
            ({"quarantine_period": 0.0}, "quarantine_period"),
            ({"concurrency": "nope"}, "concurrency"),
        ]
        for over, match in cases:
            with pytest.raises(ReproError, match=match):
                RunConfig.adapted(
                    "grid_site", params=GridSiteParams(**over)
                ).resolved()

    def test_build_exposes_the_hardened_control_plane(self):
        exp = GridSiteExperiment(RunConfig.adapted("grid_site", horizon=60.0))
        runtime = exp.build()
        assert runtime is not None
        # healthy + drained monitored per site — the drained gauge is what
        # re-detects a silently no-opped drain
        assert len(runtime.gauges) == 2 * exp.params.sites
        [engine] = runtime.managers
        assert engine.repair_timeout == exp.params.repair_timeout
        assert engine.retry_policy.max_attempts == exp.params.retry_attempts
        assert engine.quarantine_policy is not None
        # one shard: the coordinator shows the engine's own breaker bank
        assert runtime.manager.breakers is engine.breakers is not None

    def test_control_run_builds_outages_only_plane(self):
        exp = GridSiteExperiment(RunConfig.control("grid_site", horizon=60.0))
        assert exp.build() is None
        assert exp.control_plane is not None
        spec = exp.control_plane.spec
        assert spec.effector is None
        assert spec.outages[0].targets == ("site2", "site3", "site4")


class TestApplication:
    def _app(self, **kwargs):
        sim = Simulator()
        defaults = dict(
            sites=SITES,
            service_mean=5.0,
            rng=SeedSequenceFactory(7).rng("service"),
        )
        defaults.update(kwargs)
        return sim, GridSiteApplication(sim, **defaults)

    def test_router_is_health_blind(self):
        """A downed site keeps receiving its capacity share of arrivals."""
        sim, app = self._app()
        app.fail("siteA")
        for _ in range(10):
            app.submit()
        # cycle A,B,C,A,B repeated: siteA holds 2 of every 5 submissions
        assert app.queue_length("siteA") == 4
        assert app.completed == 0 or app.queue_length("siteA") > 0

    def test_fail_strands_running_tasks(self):
        sim, app = self._app()
        for _ in range(6):
            app.submit()
        app.fail("siteB")
        sim.run(until=100.0)
        assert app.stranded >= 1
        # stale-epoch completions were discarded, stranded work is queued
        assert app.site("siteB").running == 0
        assert app.completed < 6

    def test_recover_pumps_the_frozen_backlog(self):
        sim, app = self._app()
        for _ in range(6):
            app.submit()
        app.fail("siteB")
        app.recover("siteB")
        sim.run(until=500.0)
        assert app.completed == 6
        assert app.backlog() == 0

    def test_drain_moves_backlog_to_survivors(self):
        sim, app = self._app()
        app.fail("siteA")
        for _ in range(10):
            app.submit()
        queued = app.queue_length("siteA")
        assert queued > 0
        moved = app.drain_site("siteA")
        assert moved == queued
        assert app.queue_length("siteA") == 0
        sim.run(until=1000.0)
        assert app.completed == 10  # nothing lost in the move

    def test_resubmit_rejoins_the_cycle(self):
        sim, app = self._app()
        app.drain_site("siteC")
        for _ in range(5):
            app.submit()
        assert app.queue_length("siteC") == 0  # out of rotation
        app.resubmit_pilots("siteC")
        for _ in range(5):
            app.submit()
        assert app.queue_length("siteC") > 0

    def test_unknown_site_fails_loudly(self):
        sim, app = self._app()
        with pytest.raises(EnvironmentError_, match="no site"):
            app.fail("nowhere")
        with pytest.raises(EnvironmentError_, match="at least one site"):
            GridSiteApplication(sim, sites=[], service_mean=1.0, rng=None)


class TestEndToEnd:
    def test_adapted_beats_control_at_least_2x(self, pair):
        adapted, control = pair["adapted"], pair["control"]
        assert isinstance(adapted, GridSiteResult)
        assert adapted.completed >= 2 * control.completed
        # and strands far less work in dead sites
        assert adapted.stranded < control.stranded

    def test_same_outage_timeline_both_runs(self, pair):
        """Control and adapted runs share one seeded crash schedule."""
        crashes = {
            name: [
                (r.time, r.data["component"])
                for r in run.trace.select("fault.crash")
            ]
            for name, run in pair.items()
        }
        assert crashes["adapted"] == crashes["control"]
        assert len(crashes["adapted"]) >= 1
        assert (
            pair["adapted"].fault_stats["crashes"]
            == pair["control"].fault_stats["crashes"]
        )

    def test_resilience_machinery_exercised(self, pair):
        """The default run drives every hardening path at least once."""
        res = pair["adapted"].resilience
        assert res["retries"] >= 1
        assert res["timeouts"] >= 1
        assert res["quarantines"] >= 1
        assert res["breaker_opened"] >= 1
        assert pair["control"].resilience == {}
        # effector sabotage only hits the adapted run's translator
        assert pair["adapted"].fault_stats["effector_raised"] >= 1
        assert pair["control"].fault_stats["effector_raised"] == 0

    def test_every_opened_breaker_recovers_or_escalates(self, pair):
        adapted = pair["adapted"]
        trace = adapted.trace
        for opened in trace.select("repair.breaker_open"):
            tactic = opened.data["tactic"]
            scope = opened.data["scope"]
            recovered = any(
                r.time >= opened.time
                and r.data["tactic"] == tactic
                and r.data["scope"] == scope
                for r in trace.select("repair.breaker_closed")
            )
            escalated = any(
                r.time >= opened.time and r.data["scope"] == scope
                for r in trace.select("repair.human_alert")
            )
            assert recovered or escalated, (
                f"breaker {tactic}@{scope} opened at {opened.time} and was "
                f"neither recovered nor escalated"
            )
        assert not trace.select("repair.breaker_open") or (
            adapted.resilience["breaker_recoveries"] >= 1
            or adapted.resilience["human_alerts"] >= 1
        )
        # no breaker left open at the end of the run
        assert adapted.resilience["breakers_open"] == 0
        assert set(adapted.breaker_states.values()) <= {"closed", "half-open"}

    def test_drain_repairs_have_hierarchical_footprints(self, pair):
        """A committed drainSite writes the site AND its pool subtree."""
        drains = [
            r for r in pair["adapted"].history.committed
            if r.tactic_applied == "drainSite"
        ]
        assert drains
        for record in drains:
            site = record.scope
            elements = record.footprint.elements
            assert site in elements
            pools = {e for e in elements if e.startswith(f"{site}_pool")}
            assert len(pools) >= 2
            # the tactic-level footprint agrees
            tactic, fp = record.tactic_footprints[0]
            assert tactic == "drainSite"
            assert site in fp.elements

    def test_repair_intents_flow_through_public_operators(self, pair):
        """Repairs act only via drainSite/resubmitPilots intents."""
        ops = {str(i.op) for r in pair["adapted"].history.committed for i in r.intents}
        assert ops == {"drainSite", "resubmitPilots"}

    def test_extras_surface_resilience_views(self, pair):
        extras = pair["adapted"].extras()
        assert extras["sites"] == [f"site{i}" for i in range(5)]
        assert extras["stranded"] == pair["adapted"].stranded
        assert "breaker_opened" in extras["resilience"]
        summary = pair["adapted"].summary()
        assert summary["counters"]["faults"]["crashes"] >= 1


class TestDeterminism:
    def test_same_seed_same_faults_same_repairs(self, pair):
        """Two fresh runs of one seed: identical fault stats, histories
        and breaker states (the acceptance bar for reproducible chaos)."""
        again = api.run(RunConfig.adapted("grid_site"), fresh=True)
        first = pair["adapted"]
        assert again.fault_stats == first.fault_stats
        assert again.resilience == first.resilience
        assert again.breaker_states == first.breaker_states

        def key(run):
            return [
                (
                    r.started,
                    r.strategy,
                    r.scope,
                    r.attempt,
                    r.retry_backoff,
                    r.timed_out,
                    r.committed,
                    r.abort_reason,
                    r.ended,
                )
                for r in run.history
            ]

        assert key(again) == key(first)

    def test_faults_disabled_runs_clean(self):
        result = api.run(
            RunConfig.adapted(
                "grid_site",
                horizon=300.0,
                params=GridSiteParams(faults_enabled=False),
            )
        )
        assert result.fault_stats == {}
        assert not result.trace.select("fault.")
        assert result.completed > 0
        assert result.stranded == 0
