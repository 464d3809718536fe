"""End-to-end tests for the ``multi_tenant`` scenario.

The scenario is registered purely through the public API (like
``master_worker``), so these tests double as a check that the concurrent
repair engine is reachable from the scenario-neutral front door: params
routing, registry listing, per-tenant repairs, and the headline
adapted-concurrent vs adapted-serial comparison.
"""

from collections import Counter

import pytest

from repro import api
from repro.api import RunConfig
from repro.app.multi_tenant_app import MultiTenantApplication
from repro.errors import EnvironmentError_, ReproError, TranslationError
from repro.experiment.multi_tenant_scenario import (
    MultiTenantExperiment,
    MultiTenantParams,
    MultiTenantResult,
)
from repro.sim import Simulator
from repro.util.rng import SeedSequenceFactory


def fast_config(**changes):
    """A small-but-realistic config: 4 tenants, early surge, 600 s."""
    base = dict(
        tenants=4,
        surge_start=60.0,
        surge_end=360.0,
    )
    base.update(changes)
    return RunConfig.adapted("multi_tenant", horizon=600.0).but(**base)


class TestApplication:
    def make_app(self, tenants=("T0", "T1"), workers=2):
        sim = Simulator()
        seeds = SeedSequenceFactory(7)
        app = MultiTenantApplication(
            sim,
            tenants=list(tenants),
            workers=workers,
            service_mean=2.0,
            rng_factory=seeds.rng,
        )
        return sim, app

    def test_tenants_are_isolated(self):
        sim, app = self.make_app()
        for _ in range(6):
            app.submit("T0")
        assert app.queue_length("T0") > 0
        assert app.queue_length("T1") == 0
        assert app.latency("T1") == 0.0
        assert app.latency("T0") == pytest.approx(
            app.queue_length("T0") * 2.0 / 2
        )
        assert app.violating(max_latency=0.5) == ["T0"]

    def test_resize_only_touches_one_tenant(self):
        sim, app = self.make_app()
        old = app.set_pool_size("T0", 6)
        assert old == 2
        assert app.pool_size("T0") == 6
        assert app.pool_size("T1") == 2

    def test_unknown_tenant_rejected(self):
        sim, app = self.make_app()
        with pytest.raises(EnvironmentError_):
            app.submit("T9")
        with pytest.raises(EnvironmentError_):
            MultiTenantApplication(
                sim, tenants=[], workers=2, service_mean=1.0,
                rng_factory=SeedSequenceFactory(1).rng,
            )


class TestRegistrationAndParams:
    def test_registered_through_public_api(self):
        entries = {e["name"]: e for e in api.list_scenarios()}
        assert "multi_tenant" in entries
        assert entries["multi_tenant"]["params_type"] == "MultiTenantParams"
        assert entries["multi_tenant"]["params"]["concurrency"] == "disjoint"

    def test_params_validation(self):
        with pytest.raises(ReproError, match="concurrency"):
            fast_config(concurrency="parallel").resolved()
        with pytest.raises(ReproError, match="surge window"):
            fast_config(surge_start=400.0, surge_end=100.0).resolved()
        with pytest.raises(ReproError, match="pool sizes"):
            fast_config(workers=20).resolved()
        with pytest.raises(ReproError, match="surged_tenants"):
            fast_config(surged_tenants=9).resolved()

    def test_tenant_naming_and_surge_subset(self):
        params = MultiTenantParams(tenants=3, surged_tenants=2)
        assert params.tenant_names() == ["T0", "T1", "T2"]
        assert params.surged() == ["T0", "T1"]
        assert MultiTenantParams(tenants=2).surged() == ["T0", "T1"]


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def adapted(self):
        return api.run(fast_config())

    @pytest.fixture(scope="class")
    def serial(self):
        return api.run(fast_config(concurrency="serial"))

    @pytest.fixture(scope="class")
    def control(self):
        return api.run(fast_config().but(adaptation=False, name="control"))

    def test_adapted_run_repairs_all_tenants(self, adapted):
        assert isinstance(adapted, MultiTenantResult)
        assert adapted.tenants == ["T0", "T1", "T2", "T3"]
        grown = {
            r.scope for r in adapted.history.committed
            if r.tactic_applied == "addCapacity"
        }
        assert grown == {"T0", "T1", "T2", "T3"}

    def test_repairs_actually_overlap(self, adapted):
        assert adapted.stats.repairs["peak_inflight"] >= 2
        assert float(adapted.s("repairs.inflight").values.max()) >= 2

    def test_repair_intervals_are_the_history_records(self, adapted):
        """Regression: pairing ``repair.start``/``repair.end`` trace events
        greedily mis-paired overlapping repairs and dropped most of them."""
        intervals = adapted.repair_intervals()
        assert len(intervals) == len(adapted.history)
        assert intervals == sorted(intervals)
        assert Counter(intervals) == Counter(
            (r.started, r.ended) for r in adapted.history
        )
        # the run really overlaps: some repair starts before the last ends
        assert any(b[0] < a[1] for a, b in zip(intervals, intervals[1:]))
        assert adapted.summary()["repairs"]["intervals"] == [
            [a, b] for a, b in intervals
        ]

    def test_disjoint_beats_serial_on_time_to_all_repaired(
        self, adapted, serial
    ):
        concurrent_t = adapted.time_to_all_repaired()
        serial_t = serial.time_to_all_repaired()
        assert concurrent_t > 0
        assert serial_t >= 2.0 * concurrent_t
        # identical seeded task stream through both schedulers
        assert adapted.issued == serial.issued

    def test_control_run_never_quiesces_during_surge(self, control, adapted):
        assert len(control.history) == 0
        assert control.time_to_all_repaired() > adapted.time_to_all_repaired()
        # pools never move without the control plane
        for tenant in control.tenants:
            assert set(control.s(f"size.{tenant}").values) == {2.0}

    def test_pools_shrink_back_after_surge(self, adapted):
        params = adapted.config.params
        sizes = adapted.final_sizes()
        assert all(size <= params.workers + params.grow_step
                   for size in sizes.values())
        shrinks = [
            r for r in adapted.history.committed
            if r.tactic_applied == "removeCapacity"
        ]
        assert shrinks

    def test_summary_and_extras(self, adapted):
        summary = adapted.summary()
        assert summary["scenario"] == "multi_tenant"
        details = summary["details"]
        assert details["tenants"] == ["T0", "T1", "T2", "T3"]
        assert details["time_to_all_repaired"] > 0
        assert details["peak_inflight"] >= 2
        assert "conflicts" in details

    def test_footprints_recorded_and_disjoint(self, adapted):
        committed = adapted.history.committed
        for record in committed:
            assert record.footprint is not None
            assert not record.footprint.universal
            assert record.scope in record.footprint.elements
        # per-tenant repairs never touch another tenant's pool component
        tenants = set(adapted.tenants)
        for record in committed:
            others = tenants - {record.scope}
            assert not (record.footprint.elements & others)


class TestTranslator:
    def test_unknown_intent_rejected(self):
        experiment = MultiTenantExperiment(fast_config())
        translator = experiment.runtime.translator

        class FakeIntent:
            op = "explode"
            args = {}

        translator.execute([FakeIntent()])
        with pytest.raises(TranslationError):
            experiment.sim.run(until=1.0)
