"""Typed per-scenario parameter blocks.

The scenario-neutral :class:`~repro.experiment.config.RunConfig` carries
only what *every* experiment has (name, seed, horizon, adaptation toggle,
sampling period, scenario id); everything a particular application family
tunes lives in a frozen :class:`ScenarioParams` subclass registered
alongside the scenario's builder::

    register_scenario("pipeline", params=PipelineParams)

Param blocks are frozen dataclasses, so they hash and compose into the
result cache's key; :meth:`ScenarioParams.validate` and
:meth:`ScenarioParams.spec_settings` run when a config is resolved, before
any simulation is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass, replace
from math import isfinite
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Dict, Tuple

from repro.errors import ReproError
from repro.monitoring.manager import WakeThreshold
from repro.repair.engine import check_engine_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiment.config import RunConfig

#: the knobs :func:`~repro.repair.engine.check_engine_policy` checks
ENGINE_POLICY = ("violation_policy", "concurrency", "max_concurrent_repairs")

#: the AdaptationSpec fields a block hands on as they are, if it declares
#: them (see :meth:`ScenarioParams.spec_settings`)
SPEC_FIELDS = ENGINE_POLICY + (
    "gauge_caching", "settle_time", "failed_repair_cost", "sharding"
)

__all__ = [
    "ScenarioParams",
    "ClientServerParams",
    "PipelineParams",
    "PIPELINE_STAGES",
]


@dataclass(frozen=True)
class ScenarioParams:
    """Base class (and the no-knob default) for scenario param blocks."""

    #: nested frozen config blocks reachable through dotted ``but`` keys
    #: (``sharding.shards=4``): field name -> block type, used to build a
    #: default instance when the field is currently ``None``
    NESTED_BLOCKS: ClassVar[Dict[str, type]] = {}

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def but(self, **changes: Any) -> "ScenarioParams":
        """A modified copy; rejects names the block does not declare.

        Dotted keys reach into nested frozen config blocks:
        ``but(**{"sharding.shards": 4})`` replaces the ``sharding``
        block's ``shards`` field (building a default block via
        ``NESTED_BLOCKS`` when the field is currently ``None``).  The
        nested block's own construction-time validation runs on the
        replacement, so inconsistent values fail here, not mid-build.
        """
        flat: Dict[str, Any] = {}
        nested: Dict[str, Dict[str, Any]] = {}
        for key, value in changes.items():
            if "." in key:
                head, sub = key.split(".", 1)
                nested.setdefault(head, {})[sub] = value
            else:
                flat[key] = value
        unknown = sorted((set(flat) | set(nested)) - set(self.field_names()))
        if unknown:
            raise ReproError(
                f"{type(self).__name__} has no parameter(s) {unknown}; "
                f"declared: {sorted(self.field_names())}"
            )
        for head in sorted(nested):
            current = flat.get(head, getattr(self, head))
            if current is None:
                block_type = self.NESTED_BLOCKS.get(head)
                if block_type is None:
                    raise ReproError(
                        f"{type(self).__name__}.{head} is unset and has no "
                        f"registered nested block type"
                    )
                current = block_type()
            if not is_dataclass(current):
                raise ReproError(
                    f"{type(self).__name__}.{head} is not a nested config "
                    f"block; cannot set {sorted(nested[head])}"
                )
            valid = {f.name for f in fields(current)}
            bad = sorted(set(nested[head]) - valid)
            if bad:
                raise ReproError(
                    f"{type(current).__name__} has no parameter(s) {bad}; "
                    f"declared: {sorted(valid)}"
                )
            try:
                flat[head] = replace(current, **nested[head])
            except ValueError as exc:
                raise ReproError(str(exc)) from None
        return replace(self, **flat)

    def cache_key(self) -> Tuple:
        """Hashable identity, composed into :meth:`RunConfig.cache_key`."""
        return (type(self).__name__,) + tuple(
            getattr(self, name) for name in self.field_names()
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in self.field_names():
            value = getattr(self, name)
            if is_dataclass(value) and not isinstance(value, type):
                value = {f.name: getattr(value, f.name) for f in fields(value)}
            out[name] = value
        return out

    # -- validation hooks ---------------------------------------------------
    def validate(self, config: "RunConfig") -> None:
        """Raise :class:`ReproError`, naming the knob, on a value that
        cannot build.  Each bound is checked in one place: the engine
        policy (:data:`ENGINE_POLICY`) by the engine's own
        :func:`~repro.repair.engine.check_engine_policy`; a value object
        (fault spec, resilience policy, wake threshold) by its owner,
        when :meth:`spec_settings` builds it; the rest (shapes, rates,
        periods, phase order against the resolved ``config``) here.
        ``RunConfig.resolved`` calls this, then :meth:`spec_settings`.
        """

    def spec_settings(self, seed: int) -> Dict[str, Any]:
        """The ``AdaptationSpec`` keywords this block decides, checked.

        The :data:`SPEC_FIELDS` it declares and the wake thresholds, plus
        the value objects a block adds; ``_adaptation_spec`` passes them as
        ``**params.spec_settings(seed)``.
        """
        names = set(self.field_names())
        settings = {n: getattr(self, n) for n in SPEC_FIELDS if n in names}
        check_engine_policy(**{n: settings[n] for n in ENGINE_POLICY if n in names})
        return {**settings, "wake_thresholds": self.wake_thresholds()}

    def wake_thresholds(self) -> Dict[str, WakeThreshold]:
        """Gauge kind -> when its reports wake the checker (none: always)."""
        return {}

    def _owned(self, build: Callable[[], Any], **knobs: str) -> Any:
        """``build()``, an owner's ``ValueError`` made a :class:`ReproError`
        naming the knobs of the fields the owner's message names
        (``knobs`` maps field names to the knobs they are built from)."""
        try:
            return build()
        except ValueError as exc:
            named = [k for f, k in knobs.items() if re.search(rf"\b{f}\b", str(exc))]
            knobs_named = ", ".join(named or knobs.values())
            raise ReproError(f"{type(self).__name__}: {knobs_named}: {exc}") from None

    def _wake_threshold(self, knob: str, direction: str = "above") -> WakeThreshold:
        """Wake the checker on crossing ``knob``'s value, banded by the
        ``wake_band`` fraction of it."""
        value = getattr(self, knob)
        return self._owned(
            lambda: WakeThreshold(value, self.wake_band * value, direction),
            threshold=knob,
            band=f"{knob}, wake_band",
        )

    def _require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ReproError(f"{type(self).__name__}: {message}")

    def _positive(self, *names: str) -> None:
        for name in names:
            self._require(getattr(self, name) > 0, f"{name} must be positive")

    def _at_least(self, bound: int, *names: str) -> None:
        for name in names:
            self._require(getattr(self, name) >= bound, f"{name} must be >= {bound}")

    def _check_rates(self, *names: str) -> None:
        """Shared check for arrival rates: finite and positive.

        An infinite rate draws zero gaps, so simulated time never leaves
        the instant its arrival process runs at.
        """
        for name in names:
            rate = getattr(self, name)
            self._require(
                isfinite(rate) and rate > 0, f"{name} must be finite and positive"
            )


@dataclass(frozen=True)
class ClientServerParams(ScenarioParams):
    """The paper's Figure 6/7 client/server testbed knobs."""

    # adaptation stack
    underutilization_repair: bool = True

    # performance objectives (paper §5 thresholds): s, queued requests, bps
    max_latency: float = 2.0
    max_server_load: float = 6.0
    min_bandwidth: float = 10e3
    min_servers: int = 3
    min_utilization: float = 0.35

    # workload (Figure 7)
    baseline_rate: float = 1.0
    stress_rate: float = 3.0
    quiescent_end: float = 120.0
    stress_start: float = 600.0
    stress_end: float = 1200.0

    # application service model
    service_base: float = 0.10  # s per request
    service_per_byte: float = 7.5e-6  # s per response byte (20 KB -> +0.15 s)

    # monitoring
    gauge_period: float = 5.0
    latency_horizon: float = 30.0
    load_horizon: float = 30.0
    load_probe_period: float = 1.0
    bandwidth_probe_period: float = 10.0
    monitoring_qos: bool = False  # A2: prioritize monitoring traffic
    congestion_penalty: float = 8.0  # extra bus delay at full congestion, s

    # repair machinery
    settle_time: float = 20.0
    failed_repair_cost: float = 2.0
    violation_policy: str = "first"  # or "worst" (the paper's §7 proposal)
    gauge_caching: bool = False  # A1: cache gauges instead of recreate
    remos_prewarm: bool = True  # A3: pre-query Remos (paper's fix)
    remos_cold_delay: float = 90.0
    remos_warm_delay: float = 0.5

    def validate(self, config: "RunConfig") -> None:
        self._positive("max_latency")
        self._at_least(0, "max_server_load", "min_bandwidth")
        self._require(
            isfinite(self.baseline_rate) and isfinite(self.stress_rate),
            "baseline_rate and stress_rate must be finite",
        )
        self._positive("gauge_period", "load_probe_period", "bandwidth_probe_period")
        self._positive("latency_horizon", "load_horizon")
        self._at_least(0, "settle_time", "service_base", "service_per_byte")
        self._at_least(0, "remos_cold_delay", "remos_warm_delay")
        self._require(
            0 <= self.quiescent_end <= self.stress_start <= self.stress_end,
            "workload phases must be ordered "
            "(0 <= quiescent_end <= stress_start <= stress_end)",
        )


#: (stage, initial width, service seconds/item) — transform is the
#: designed bottleneck: capacity 1/0.9 ≈ 1.1 items/s at width 1.
PIPELINE_STAGES: Tuple[Tuple[str, int, float], ...] = (
    ("ingest", 2, 0.40),
    ("transform", 1, 0.90),
    ("publish", 2, 0.30),
)


@dataclass(frozen=True)
class PipelineParams(ScenarioParams):
    """The batch-pipeline scenario's knobs (stages, burst, budgets)."""

    #: (name, initial width, service seconds/item) per stage, in order
    stages: Tuple[Tuple[str, int, float], ...] = PIPELINE_STAGES

    # workload: Poisson item stream bursting above the bottleneck capacity
    baseline_rate: float = 0.8  # items/s, below the bottleneck's capacity
    burst_rate: float = 3.0  # items/s, needs transform width >= 3

    # thresholds and budgets
    max_backlog: float = 25.0  # backlogBound invariant
    low_water: float = 2.0  # never narrow a stage still queueing
    min_utilization: float = 0.5  # occupancy under which width is idle
    worker_budget: int = 8  # total workers across stages

    # translation costs
    widen_cost: float = 8.0  # s to spin up one worker
    redeploy_window: float = 10.0  # s of gauge blindness after a repair

    # monitoring + repair machinery (shared shape with the other blocks)
    gauge_period: float = 5.0
    load_probe_period: float = 1.0
    load_horizon: float = 30.0
    gauge_caching: bool = False
    settle_time: float = 20.0
    failed_repair_cost: float = 2.0
    violation_policy: str = "first"

    def validate(self, config: "RunConfig") -> None:
        self._require(len(self.stages) >= 2, "a pipeline needs >= 2 stages")
        self._check_rates("baseline_rate", "burst_rate")
        self._at_least(1, "worker_budget")
        self._positive("gauge_period", "load_probe_period", "load_horizon")
        initial = sum(width for _, width, _ in self.stages)
        self._require(
            initial <= self.worker_budget,
            f"initial widths ({initial}) exceed worker_budget "
            f"({self.worker_budget})",
        )
