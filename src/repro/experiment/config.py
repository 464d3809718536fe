"""The scenario-neutral run configuration.

:class:`RunConfig` is the front door every scenario shares: the handful
of fields that mean the same thing for any experiment (which scenario,
run name, seed, horizon, adaptation on/off, sampling period) plus one
typed, frozen :class:`~repro.experiment.params.ScenarioParams` block
holding everything scenario-specific.  The block's type is registered
with the scenario (``register_scenario(name, params=...)``); leaving
``params=None`` means "that scenario's defaults".

Both config and params are frozen and hashable, and the result cache is
keyed by their composition (:meth:`cache_key`), so equal configurations
share one simulated run no matter who built them.

Scenario knobs are read from the block (``config.params.settle_time``);
:meth:`but` routes scenario field names into it, so ablation one-liners
stay short (``cfg.but(gauge_caching=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Optional, Tuple

from repro.errors import ReproError
from repro.experiment.params import ScenarioParams

__all__ = ["RunConfig", "as_run_config"]


@dataclass(frozen=True)
class RunConfig:
    """One experiment run, described scenario-neutrally."""

    scenario: str = "client_server"
    name: str = "adapted"
    seed: int = 2002  # HPDC'02
    horizon: float = 1800.0
    adaptation: bool = True
    sample_period: float = 5.0

    #: the scenario's typed knob block; None -> the registered defaults
    params: Optional[ScenarioParams] = None

    # -- named variants ------------------------------------------------------
    @staticmethod
    def control(scenario: str = "client_server", seed: int = 2002,
                **changes: Any) -> "RunConfig":
        """The paper's control shape: no adaptation at all."""
        return RunConfig(
            scenario=scenario, name="control", seed=seed, adaptation=False
        ).but(**changes)

    @staticmethod
    def adapted(scenario: str = "client_server", seed: int = 2002,
                **changes: Any) -> "RunConfig":
        """The paper's repair shape: full adaptation framework."""
        return RunConfig(
            scenario=scenario, name="adapted", seed=seed, adaptation=True
        ).but(**changes)

    # -- derivation ----------------------------------------------------------
    def but(self, **changes: Any) -> "RunConfig":
        """A modified copy; scenario-specific names route into ``params``.

        Changing ``scenario`` without also passing ``params`` drops the
        old block (the new scenario's defaults apply instead).
        """
        neutral = {k: v for k, v in changes.items() if k in _FIELD_NAMES}
        extra = {k: v for k, v in changes.items() if k not in _FIELD_NAMES}
        config = self
        if "scenario" in neutral and "params" not in neutral:
            neutral["params"] = None
        if neutral:
            config = replace(config, **neutral)
        if extra:
            config = replace(config, params=config._params_or_default().but(**extra))
        return config

    def _params_or_default(self) -> ScenarioParams:
        if self.params is not None:
            return self.params
        from repro.experiment.scenarios import scenario_entry

        return scenario_entry(self.scenario).params_type()

    def resolved(self) -> "RunConfig":
        """This config with ``params`` filled in and everything validated.

        Raises :class:`ReproError` on an unknown scenario, a params block
        of the wrong registered type, or inconsistent values.
        """
        from repro.experiment.scenarios import scenario_entry

        entry = scenario_entry(self.scenario)
        params = self.params
        if params is None:
            params = entry.params_type()
        elif not isinstance(params, entry.params_type):
            raise ReproError(
                f"scenario {self.scenario!r} takes "
                f"{entry.params_type.__name__} params, "
                f"got {type(params).__name__}"
            )
        config = self if params is self.params else replace(self, params=params)
        config._validate_neutral()
        params.validate(config)
        params.spec_settings(config.seed)
        return config

    def _validate_neutral(self) -> None:
        if self.horizon <= 0:
            raise ReproError(f"horizon must be positive, got {self.horizon}")
        if self.sample_period <= 0:
            raise ReproError(
                f"sample_period must be positive, got {self.sample_period}"
            )

    def cache_key(self) -> Tuple:
        """Hashable identity for the result cache (params included)."""
        config = self.resolved()
        return (
            config.scenario,
            config.name,
            config.seed,
            config.horizon,
            config.adaptation,
            config.sample_period,
        ) + config.params.cache_key()


_FIELD_NAMES = frozenset(f.name for f in fields(RunConfig))


def as_run_config(config: Any) -> RunConfig:
    """``config`` resolved, or a :class:`ReproError` if it is no RunConfig."""
    if isinstance(config, RunConfig):
        return config.resolved()
    raise ReproError(f"expected RunConfig, got {type(config).__name__}")
