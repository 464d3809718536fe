"""The scenario-neutral experiment facade.

One import gives scripts, notebooks, and the ``python -m repro`` CLI the
whole experiment surface::

    from repro import api

    result = api.run(api.RunConfig(scenario="master_worker"))
    print(result.summary()["completed"])

    for entry in api.list_scenarios():
        print(entry["name"], "-", entry["description"])

    pair = api.compare("pipeline", fast=True)
    print(pair["adapted"].completed - pair["control"].completed)

Everything dispatches through the scenario registry and shares the
bounded LRU result cache, so equal configs never duplicate a 30-minute
simulation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.experiment.config import RunConfig, as_run_config
from repro.experiment.params import (
    ClientServerParams,
    PipelineParams,
    ScenarioParams,
)
from repro.experiment.result import ClientServerResult, PipelineResult, RunResult
from repro.experiment.runner import (
    clear_cache,
    run_scenario,
    set_cache_capacity,
)
from repro.experiment.scenarios import (
    Scenario,
    ScenarioEntry,
    register_scenario,
    scenario_entries,
    scenario_entry,
    scenario_names,
    unregister_scenario,
)
from repro.runtime.sharding import ShardingSpec
from repro.runtime.stats import RuntimeStats, ShardStats

__all__ = [
    "ShardingSpec",
    "RuntimeStats",
    "ShardStats",
    "RunConfig",
    "as_run_config",
    "RunResult",
    "ClientServerResult",
    "PipelineResult",
    "ScenarioParams",
    "ClientServerParams",
    "PipelineParams",
    "Scenario",
    "ScenarioEntry",
    "run",
    "make_config",
    "list_scenarios",
    "compare",
    "report",
    "register_scenario",
    "unregister_scenario",
    "scenario_entry",
    "scenario_entries",
    "scenario_names",
    "clear_cache",
    "set_cache_capacity",
]

#: horizon used by ``fast=True`` / the CLI's ``--fast`` smoke mode
FAST_HORIZON = 300.0


def run(config: RunConfig, fresh: bool = False) -> RunResult:
    """Run (or fetch the cached result of) one configured scenario."""
    return run_scenario(config, fresh=fresh)


def make_config(
    scenario: str = "client_server",
    *,
    name: Optional[str] = None,
    adaptation: bool = True,
    seed: int = 2002,
    horizon: Optional[float] = None,
    sample_period: Optional[float] = None,
    fast: bool = False,
    params: Optional[ScenarioParams] = None,
    overrides: Optional[Dict[str, Any]] = None,
) -> RunConfig:
    """Build a resolved :class:`RunConfig` from loosely-typed inputs.

    This is the CLI's constructor: neutral fields are keywords,
    ``fast=True`` caps the horizon at :data:`FAST_HORIZON`, and
    ``overrides`` routes any remaining ``field=value`` pairs through
    :meth:`RunConfig.but` (so scenario-specific names land in the typed
    params block, with unknown names rejected).
    """
    config = RunConfig(
        scenario=scenario,
        name=name if name is not None else ("adapted" if adaptation else "control"),
        seed=seed,
        adaptation=adaptation,
        params=params,
    )
    if horizon is not None:
        config = config.but(horizon=horizon)
    if sample_period is not None:
        config = config.but(sample_period=sample_period)
    if overrides:
        config = config.but(**overrides)
    if fast:  # applied last: the smoke cap wins however horizon was spelled
        config = config.but(horizon=min(config.horizon, FAST_HORIZON))
    return config.resolved()


def list_scenarios() -> List[Dict[str, Any]]:
    """Registered scenarios with their typed param blocks' defaults."""
    return [
        {
            "name": entry.name,
            "description": entry.description,
            "params_type": entry.params_type.__name__,
            "params": entry.params_type().to_dict(),
        }
        for entry in scenario_entries()
    ]


def compare(
    scenario: str = "client_server",
    *,
    seed: int = 2002,
    horizon: Optional[float] = None,
    fast: bool = False,
    fresh: bool = False,
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The paper's headline comparison for any scenario.

    Runs the adapted and control variants of ``scenario`` under the
    identical seeded workload and returns ``{"scenario", "adapted",
    "control", "delta"}`` where ``delta`` holds the adapted-minus-control
    completion scalars.
    """
    kwargs = dict(
        seed=seed, horizon=horizon, fast=fast, overrides=overrides
    )
    adapted = run(make_config(scenario, adaptation=True, **kwargs), fresh=fresh)
    control = run(make_config(scenario, adaptation=False, **kwargs), fresh=fresh)
    return {
        "scenario": scenario,
        "adapted": adapted,
        "control": control,
        "delta": {
            "completed": adapted.completed - control.completed,
            "dropped": adapted.dropped - control.dropped,
            "repairs_committed": len(adapted.history.committed),
        },
    }


def report(config: RunConfig, fresh: bool = False) -> str:
    """Run one config and render a text report.

    Client/server runs get the paper's §5 claims table; every scenario
    gets the neutral summary plus per-series strips.
    """
    from repro.experiment import reporting
    from repro.experiment.metrics import extract_claims
    from repro.util.tables import render_series, render_table

    result = run(config, fresh=fresh)
    cfg = result.config
    blocks: List[str] = [
        f"scenario {cfg.scenario!r}, run {cfg.name!r} "
        f"(seed {cfg.seed}, horizon {cfg.horizon:.0f} s, "
        f"adaptation {'on' if cfg.adaptation else 'off'})"
    ]
    summary = result.summary()
    rows = [
        ["issued", summary["issued"]],
        ["completed", summary["completed"]],
        ["dropped", summary["dropped"]],
        ["repairs committed", summary["repairs"]["committed"]],
        ["repairs aborted", summary["repairs"]["aborted"]],
    ]
    for key, value in sorted((summary.get("details") or {}).items()):
        rows.append([key, value])
    blocks.append(render_table(["measure", "value"], rows, title="summary"))
    if isinstance(result, ClientServerResult):
        blocks.append(
            reporting.render_claims(
                extract_claims(result), title="paper §5 claims"
            )
        )
    blocks.append(reporting.render_repair_intervals(result))
    for name in sorted(result.series):
        ts = result.s(name)
        times, values = ts.as_lists()
        blocks.append(render_series(name, times, values, log=False, unit=ts.unit))
    return "\n\n".join(blocks)
