"""The ``map_reduce`` scenario: registration, skew repairs, monitoring fan-in."""

import pytest

from repro import api
from repro.api import RunConfig
from repro.app.map_reduce_app import MapReduceApplication
from repro.errors import ReproError
from repro.experiment.map_reduce_scenario import (
    MapReduceExperiment,
    MapReduceParams,
    MapReduceResult,
)
from repro.sim import Simulator
from repro.util.rng import SeedSequenceFactory

HORIZON = 600.0


@pytest.fixture(scope="module")
def pair():
    return {
        "adapted": api.run(RunConfig.adapted("map_reduce", horizon=HORIZON)),
        "control": api.run(RunConfig.control("map_reduce", horizon=HORIZON)),
    }


class TestRegistration:
    def test_registered_through_public_api(self):
        entries = {e["name"]: e for e in api.list_scenarios()}
        assert "map_reduce" in entries
        assert entries["map_reduce"]["params"]["reducers"] == 8

    def test_params_validation(self):
        with pytest.raises(ReproError, match="reducers"):
            RunConfig.adapted(
                "map_reduce", params=MapReduceParams(reducers=1)
            ).resolved()
        with pytest.raises(ReproError, match="key per reducer"):
            RunConfig.adapted("map_reduce", params=MapReduceParams(keys=4)).resolved()
        with pytest.raises(ReproError, match="max_share"):
            RunConfig.adapted(
                "map_reduce", params=MapReduceParams(max_share=1.5)
            ).resolved()

    def test_build_exposes_the_control_plane(self):
        exp = MapReduceExperiment(RunConfig.adapted("map_reduce", horizon=60.0))
        runtime = exp.build()
        assert runtime is not None
        # three probe/gauge pairs per reducer: the fan-in showcase
        assert len(runtime.gauges) == 3 * exp.params.reducers


class TestApplication:
    def _app(self, **kwargs):
        sim = Simulator()
        seeds = SeedSequenceFactory(7)
        defaults = dict(
            mappers=2,
            reducers=4,
            keys=8,
            zipf_s=1.1,
            map_service=0.05,
            reduce_service=0.5,
            reducer_width=1,
            record_rng=seeds.rng("records"),
        )
        defaults.update(kwargs)
        return sim, MapReduceApplication(sim, **defaults)

    def test_zipf_shuffle_concentrates_on_the_hot_partition(self):
        sim, app = self._app()
        for _ in range(2000):
            app.submit()
        sim.run()
        assert app.completed == 2000
        hot = app.key_traffic[0]
        assert hot == max(app.key_traffic.values())
        assert hot > 2000 / 8 * 2  # far above the uniform share

    def test_split_keys_moves_the_cold_half(self):
        sim, app = self._app()
        for _ in range(500):
            app.submit()
        sim.run()
        before = app.keys_of("R0")
        moved = app.split_keys("R0", "R3")
        assert moved == len(before) // 2
        assert 0 in app.keys_of("R0")  # the hot key-group stays
        assert app.key_count("R3") == 2 + moved
        assert app.split_keys("R1", "R2") in (0, 1)  # idempotence-ish

    def test_single_key_partition_cannot_split(self):
        sim, app = self._app()
        # strip R0 down to one key-group
        while app.key_count("R0") > 1:
            app.split_keys("R0", "R1")
        assert app.split_keys("R0", "R1") == 0

    def test_steal_queued_moves_the_back_half(self):
        sim, app = self._app(reducer_width=1, reduce_service=100.0)
        for _ in range(60):
            app.submit()
        sim.run(until=30.0)  # mapping done, reducers clogged
        hot_before = app.backlog("R0")
        assert hot_before > 2
        moved = app.steal_queued("R0", "R2")
        assert moved == hot_before // 2
        assert app.backlog("R0") == hot_before - moved
        assert app.stolen_records == moved
        # nothing lost: every record still queued, running, or done
        total = app.total_backlog() + sum(p.running for p in app._reducer_pools)
        assert total + app.completed == app.mapped


class TestEndToEnd:
    def test_adapted_run_commits_skew_repairs(self, pair):
        adapted = pair["adapted"]
        assert isinstance(adapted, MapReduceResult)
        assert len(adapted.history.committed) >= 3
        assert adapted.splits >= 1      # structural fix fired
        assert adapted.steals >= 1      # palliative fired too
        assert adapted.stolen_records > 0
        strategies = {r.strategy for r in adapted.history.committed}
        assert strategies == {"rebalanceShuffle"}

    def test_adaptation_caps_the_hot_partition(self, pair):
        adapted, control = pair["adapted"], pair["control"]
        assert control.splits == control.steals == 0
        hot_adapted = max(adapted.peak_backlog().values())
        hot_control = max(control.peak_backlog().values())
        assert hot_adapted < hot_control / 2
        assert adapted.completed >= control.completed

    def test_identical_seeded_record_stream(self, pair):
        assert pair["adapted"].issued == pair["control"].issued

    def test_bus_counters_surface_in_result(self, pair):
        adapted = pair["adapted"]
        bus = adapted.bus_stats
        assert set(bus) == {
            "probe_published",
            "probe_mean_transit",
            "gauge_published",
            "gauge_mean_transit",
        }
        assert bus["probe_published"] > bus["gauge_published"] > 0
        # every delivery takes the one 0.05 s delivery delay
        assert bus["probe_mean_transit"] == pytest.approx(0.05, abs=1e-12)
        assert bus["gauge_mean_transit"] == pytest.approx(0.05, abs=1e-12)
        assert adapted.summary()["counters"]["bus"] == bus
