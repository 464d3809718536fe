"""The scenario registry: named experiment builders with typed params.

A *scenario* pairs an application (runtime layer) with the control plane
that adapts it.  Registering one names three things together::

    @register_scenario("pipeline", params=PipelineParams,
                       description="batch pipeline, widen/narrow repairs")
    class PipelineExperiment(ScenarioExperiment):
        ...

* the **builder** — any callable taking a
  :class:`~repro.experiment.config.RunConfig` and returning something
  satisfying the :class:`Scenario` protocol; the built-ins register
  their :class:`~repro.experiment.base.ScenarioExperiment` subclass
  itself;
* the **params type** — the frozen
  :class:`~repro.experiment.params.ScenarioParams` subclass holding the
  scenario's knobs; ``RunConfig(params=None)`` resolves to its defaults,
  and a block of the wrong type is rejected before anything is built;
* a **description** for ``python -m repro list``.

:func:`repro.experiment.runner.run_scenario` (and the
:mod:`repro.api` facade / ``python -m repro`` CLI on top of it)
dispatches through this registry on ``config.scenario``, so every
scenario shares the same caching front door and the scenario-neutral
:class:`~repro.experiment.result.RunResult` shape.

Built-ins, each registered from its own module purely through this
public API: ``client_server`` (the paper's Figure 6/7 grid experiment),
``pipeline``, ``master_worker``, ``multi_tenant`` (+ ``_sharded``),
``map_reduce`` and ``grid_site``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Type,
    runtime_checkable,
)

from repro.errors import ReproError
from repro.experiment.config import RunConfig
from repro.experiment.params import ScenarioParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiment.result import RunResult
    from repro.runtime.core import AdaptationRuntime

__all__ = [
    "Scenario",
    "ScenarioEntry",
    "register_scenario",
    "unregister_scenario",
    "scenario_entry",
    "scenario_entries",
    "scenario_builder",
    "scenario_names",
]


@runtime_checkable
class Scenario(Protocol):
    """What a registered builder must return: a wired, runnable experiment.

    ``build()`` exposes the scenario's control plane — the
    :class:`~repro.runtime.core.AdaptationRuntime` assembled for the
    bound config, or ``None`` on control runs — without running anything;
    ``run()`` executes the bound config to completion and returns a
    :class:`~repro.experiment.result.RunResult` (or subclass).
    """

    config: RunConfig

    def build(self) -> Optional["AdaptationRuntime"]:
        ...  # pragma: no cover - protocol

    def run(self) -> "RunResult":
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: builder + params type + description."""

    name: str
    builder: Callable[[RunConfig], Scenario]
    params_type: Type[ScenarioParams] = ScenarioParams
    description: str = ""


#: scenario name -> entry
_REGISTRY: Dict[str, ScenarioEntry] = {}


def register_scenario(
    name: str,
    params: Type[ScenarioParams] = ScenarioParams,
    description: str = "",
):
    """Decorator registering a scenario builder under ``name``.

    ``params`` is the typed knob block the scenario takes (a frozen
    :class:`ScenarioParams` subclass); configs resolve ``params=None``
    to ``params()`` and reject blocks of any other type.
    """
    if not (isinstance(params, type) and issubclass(params, ScenarioParams)):
        raise ReproError(
            f"scenario {name!r}: params must be a ScenarioParams subclass, "
            f"got {params!r}"
        )

    def decorate(builder: Callable[[RunConfig], Scenario]):
        if name in _REGISTRY:
            raise ReproError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioEntry(
            name=name,
            builder=builder,
            params_type=params,
            description=description,
        )
        return builder

    return decorate


def unregister_scenario(name: str) -> None:
    """Remove a registered scenario (plugin teardown / tests)."""
    if name not in _REGISTRY:
        raise ReproError(
            f"no scenario {name!r}; registered: {scenario_names()}"
        )
    del _REGISTRY[name]


def scenario_entry(name: str) -> ScenarioEntry:
    """The entry registered under ``name`` (raises on unknown names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"no scenario {name!r}; registered: {scenario_names()}"
        ) from None


def scenario_entries() -> List[ScenarioEntry]:
    return [_REGISTRY[name] for name in scenario_names()]


def scenario_builder(name: str) -> Callable[[RunConfig], Scenario]:
    """The builder registered under ``name`` (raises on unknown names)."""
    return scenario_entry(name).builder


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

# Imported here (not at top) so the registry API above is fully defined
# by the time the scenario modules — which import it back and register
# themselves through it — are loaded.
from repro.experiment import grid_site_scenario as _grid_site  # noqa: E402,F401
from repro.experiment import map_reduce_scenario as _map_reduce  # noqa: E402,F401
from repro.experiment import master_worker_scenario as _master_worker  # noqa: E402,F401
from repro.experiment import multi_tenant_scenario as _multi_tenant  # noqa: E402,F401
from repro.experiment import pipeline_scenario as _pipeline  # noqa: E402,F401
from repro.experiment import runner as _client_server  # noqa: E402,F401
