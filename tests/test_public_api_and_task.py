"""Public API surface and the paper's performance objectives."""

import repro
from repro.experiment import ClientServerParams, RunConfig, scenario_builder


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_types_importable_from_root(self):
        assert repro.Simulator is not None
        assert repro.ArchitectureManager is not None
        assert callable(repro.run_scenario)
        assert "strategy fixLatency" in repro.FIGURE5_DSL

    def test_exception_hierarchy_rooted(self):
        from repro import errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError) or exc is errors.ReproError


class TestClientServerObjectives:
    """The paper's §5 objectives are ``ClientServerParams`` fields, published
    to the checker as the Figure 5 DSL's bindings."""

    def test_paper_defaults(self):
        p = ClientServerParams()
        assert p.max_latency == 2.0
        assert p.max_server_load == 6.0
        assert p.min_bandwidth == 10e3

    def test_bindings_names_match_figure5(self):
        config = RunConfig.adapted(max_latency=3.5, min_servers=4)
        (checker,) = scenario_builder("client_server")(config).build().checkers
        assert checker.bindings == {
            "maxLatency": 3.5,
            "maxServerLoad": 6.0,
            "minBandwidth": 10e3,
            "minServers": 4,
            "minUtilization": 0.35,
        }

    def test_zero_load_and_bandwidth_bounds_are_accepted(self):
        config = RunConfig.control(max_server_load=0.0, min_bandwidth=0.0)
        assert config.resolved().params.min_bandwidth == 0.0
