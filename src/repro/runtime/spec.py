"""Declarative configuration for an :class:`AdaptationRuntime`.

An :class:`AdaptationSpec` says *what* the control plane for one scenario
looks like — style family, repair DSL source, monitoring instrumentation,
thresholds, repair-engine policy — without wiring any of it.  The runtime
consumes the spec in a fixed order (DSL, model partition, checkers, gauge
manager, translator, engines, buses, instruments, updaters), so two runs
built from equal specs produce identical event schedules.

Instrumentation is an ordered list of bindings rather than a free-form
callback: each :class:`ProbeBinding`/:class:`GaugeBinding` contributes one
probe or gauge, and the list order *is* the creation order.  Creation
order matters in a deterministic simulator — gauge activations are
scheduled at construction time and ties break in scheduling order — which
is why the spec keeps it explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.bus.bus import DeliveryModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.spec import FaultSpec
    from repro.monitoring.gauges import Gauge
    from repro.monitoring.manager import WakeThreshold
    from repro.repair.resilience import (
        BreakerPolicy,
        QuarantinePolicy,
        RetryPolicy,
    )
    from repro.runtime.core import AdaptationRuntime
    from repro.runtime.sharding import ShardingSpec
    from repro.runtime.updater import Fanout

__all__ = ["ProbeBinding", "GaugeBinding", "InstrumentBinding", "AdaptationSpec"]


@dataclass(frozen=True)
class ProbeBinding:
    """One probe to deploy: a factory invoked with the built runtime.

    The factory typically closes over application objects and attaches the
    probe to ``runtime.probe_bus``.  Periodic probes are collected into
    ``runtime.periodic_probes`` and started by :meth:`AdaptationRuntime.start`;
    event probes (e.g. response hooks) need no start call.
    """

    factory: Callable[["AdaptationRuntime"], Any]
    periodic: bool = False


@dataclass(frozen=True)
class GaugeBinding:
    """One gauge to deploy through the runtime's gauge manager.

    ``entities`` names the runtime entities the gauge observes (used for
    repair-time redeployment); defaults to the gauge's own target.
    """

    factory: Callable[["AdaptationRuntime"], "Gauge"]
    entities: Optional[List[str]] = None


InstrumentBinding = Union[ProbeBinding, GaugeBinding]


@dataclass
class AdaptationSpec:
    """Everything that defines one scenario's control plane.

    Required:

    * ``style`` — the style-family name (informational; traces/reporting);
    * ``dsl_source`` — repair DSL text: invariants, strategies, tactics;
    * ``invariant_scopes`` — invariant name -> scope element type (how the
      checker fans each invariant out over model elements);
    * ``bindings`` — constraint-language globals (the task layer's
      thresholds, e.g. ``maxLatency``);
    * ``operators`` — builds the style-operator table for repair contexts
      (receives the runtime so operators can read the simulation clock);
    * ``instruments`` — ordered probe/gauge bindings (see module doc).

    Optional knobs mirror the seed experiment's defaults: bus delivery
    model (shared by both buses when given), gauge lifecycle costs, and
    the repair engine's pacing/selection policy.  ``gauge_property_map``
    is how gauge reports reach the model: gauge kind -> a property name
    of the target component, or the fan-out form ``((resolver,
    property), ...)`` (see :mod:`repro.runtime.updater`).
    """

    style: str
    dsl_source: str
    invariant_scopes: Mapping[str, Optional[str]]
    bindings: Mapping[str, Any]
    operators: Callable[["AdaptationRuntime"], Mapping[str, Callable[..., Any]]]
    instruments: Sequence[InstrumentBinding] = ()

    gauge_property_map: Mapping[str, Union[str, "Fanout"]] = field(
        default_factory=dict
    )
    delivery: Optional[DeliveryModel] = None

    # gauge lifecycle (paper §4: creation charges a deployment delay)
    gauge_create_delay: float = 14.0
    gauge_caching: bool = False

    # repair engine policy (paper §5.3/§7)
    settle_time: float = 20.0
    failed_repair_cost: float = 2.0
    violation_policy: str = "first"

    # repair scheduling: "serial" (the paper, bit-for-bit) or "disjoint"
    # (concurrent repairs on provably non-overlapping footprints)
    concurrency: str = "serial"
    max_concurrent_repairs: int = 8

    # inert: nothing reads it.  Kept only because the whole-plane
    # benchmark (benchmarks/e2e/plane.py) still passes telemetry=; drop
    # that argument there, then this field.
    telemetry: str = "scalar"
    # checker wakeups: gauge kind -> WakeThreshold.  A report of a listed
    # kind wakes the constraint checker only on a threshold crossing;
    # every other report wakes it (so the empty default wakes on all).
    wake_thresholds: Mapping[str, "WakeThreshold"] = field(default_factory=dict)

    # fault plane: a frozen FaultSpec turns on deterministic failure
    # injection (component outages, effector faults, probe dropout, bus
    # delivery drops).  None — the pinned-fingerprint default — builds
    # no plane at all.
    faults: Optional["FaultSpec"] = None

    # resilient repair execution: any non-None option switches the
    # engine to two-phase commit (translate, then commit) and enables
    # the corresponding hardening; all-None preserves the original
    # schedule bit for bit.
    repair_timeout: Optional[float] = None
    retry_policy: Optional["RetryPolicy"] = None
    breaker_policy: Optional["BreakerPolicy"] = None
    quarantine_policy: Optional["QuarantinePolicy"] = None
    history_capacity: Optional[int] = None

    # partition of the control plane: the model, buses, checkers, repair
    # loops and updaters are built per shard, under a footprint-locked
    # cross-shard coordinator.  None is ``ShardingSpec()``: one shard,
    # which holds the whole model and runs the pinned single loop.
    sharding: Optional["ShardingSpec"] = None
