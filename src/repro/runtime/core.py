"""The reusable adaptation control plane.

:class:`AdaptationRuntime` assembles the full monitoring-and-repair stack
of Figure 1 — probe bus, gauges and their manager, architectural model,
constraint checker, repair engine, translator — from a declarative
:class:`~repro.runtime.spec.AdaptationSpec` and a wrapped
:class:`~repro.runtime.app.ManagedApplication`.  Nothing in here knows
about clients, servers, pipelines, or any other style: scenario builders
(see :mod:`repro.experiment.scenarios`) provide the style-specific parts
as data.

There is one plane: the model is always partitioned by the spec's
:class:`~repro.runtime.sharding.ShardingSpec` (one shard when it names
none), and every per-model part is built once per shard under one
:class:`~repro.repair.sharding.ShardCoordinator`.  One shard is the
source model itself, and the coordinator's aggregate is its engine's own.

Construction order is fixed and documented because the simulator breaks
ties in scheduling order; building the same spec twice must produce the
same event schedule:

1. repair DSL parse; the application's model, partitioned;
2. per shard: constraint checker, threshold bindings, invariants;
3. gauge manager;
4. intent executor (translator), which may capture the gauge manager,
   wrapped by the fault plane when there is one;
5. per shard: architecture manager + a fresh strategy set; then the
   coordinator over them (the runtime's ``manager``);
6. probe bus, then gauge bus (one child bus per shard each, sharing the
   spec's delivery model);
7. instruments, in spec order (gauge creation schedules activations);
8. per shard: property updater on that shard's gauge-bus child;
9. fault bindings (probes, application components).

``start`` launches the periodic probes (in instrument order); everything
else is event-driven from there.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.acme.sharding import ShardedArchSystem
from repro.bus.sharding import ShardedEventBus
from repro.constraints.invariants import ConstraintChecker
from repro.faults.plane import FaultPlane
from repro.monitoring.gauges import Gauge
from repro.monitoring.manager import GaugeManager, ThresholdGate
from repro.repair.dsl import parse_repair_dsl
from repro.repair.dsl.interp import build_strategies
from repro.repair.engine import ArchitectureManager
from repro.repair.sharding import ShardCoordinator
from repro.runtime.app import ManagedApplication
from repro.runtime.sharding import ShardingSpec, resolve_shard_key
from repro.runtime.spec import AdaptationSpec, GaugeBinding, ProbeBinding
from repro.runtime.stats import RuntimeStats, ShardStats
from repro.runtime.updater import PropertyUpdater
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace

__all__ = ["AdaptationRuntime"]


class AdaptationRuntime:
    """One scenario's control plane, built from a spec + managed app."""

    def __init__(
        self,
        sim: Simulator,
        app: ManagedApplication,
        spec: AdaptationSpec,
        trace: Optional[Trace] = None,
    ):
        self.sim = sim
        self.app = app
        self.spec = spec
        self.trace = trace if trace is not None else Trace()
        sharding = spec.sharding if spec.sharding is not None else ShardingSpec()
        faulted = spec.faults is not None and spec.faults.active()
        if faulted and sharding.shards > 1:
            raise ValueError(
                "sharding and fault injection cannot be combined "
                "(the fault plane is not shard-aware yet)"
            )

        # 1-2: model layer.  Every shard gets its own checker, so
        # invariant evaluation fans out over shard-local elements only.
        document = parse_repair_dsl(spec.dsl_source)
        self.model = ShardedArchSystem.partition(
            app.architecture(), sharding.shards, resolve_shard_key(sharding.key)
        )
        models = self.model.shards
        self.checkers: List[ConstraintChecker] = []
        for _ in models:
            checker = ConstraintChecker()
            checker.bindings.update(spec.bindings)
            for decl in document.invariants:
                checker.add_source(
                    decl.name, decl.expression,
                    scope_type=spec.invariant_scopes.get(decl.name),
                    repair=decl.strategy,
                )
            self.checkers.append(checker)

        # 3-5: gauge lifecycle, translation, repair engines.  The fault
        # plane (when the spec carries an active FaultSpec) wraps the
        # translator before the engines capture it; building the plane
        # schedules nothing, so a spec without faults is unaffected.
        self.fault_plane: Optional[FaultPlane] = None
        if faulted:
            self.fault_plane = FaultPlane(sim, spec.faults, trace=self.trace)
        self.gauge_manager = GaugeManager(
            sim, self.trace,
            create_delay=spec.gauge_create_delay, cached=spec.gauge_caching,
        )
        self.translator = app.intent_executor(self)
        if self.fault_plane is not None:
            self.translator = self.fault_plane.wrap_translator(self.translator)
        runtime_view = app.runtime_view()
        operators = spec.operators(self)
        self.managers: List[ArchitectureManager] = []
        for model, checker in zip(models, self.checkers):
            manager = ArchitectureManager(
                sim,
                model,
                checker,
                translator=self.translator,
                runtime=runtime_view,
                operators=operators,
                trace=self.trace,
                settle_time=spec.settle_time,
                failed_repair_cost=spec.failed_repair_cost,
                violation_policy=spec.violation_policy,
                concurrency=spec.concurrency,
                max_concurrent_repairs=spec.max_concurrent_repairs,
                repair_timeout=spec.repair_timeout,
                retry_policy=spec.retry_policy,
                breaker_policy=spec.breaker_policy,
                quarantine_policy=spec.quarantine_policy,
                history_capacity=spec.history_capacity,
            )
            # strategies hold per-run state (a tactic's pending arguments):
            # every engine gets a fresh set rather than sharing one
            for strategy in build_strategies(document).values():
                manager.register_strategy(strategy)
            self.managers.append(manager)
        self.manager = ShardCoordinator(self.managers)

        # 6-7: monitoring infrastructure
        self.probe_bus, self.gauge_bus = (
            ShardedEventBus(
                sim, sharding.shards, self.model.shard_of,
                delivery=spec.delivery, name=name,
            )
            for name in ("probe-bus", "gauge-bus")
        )
        if self.fault_plane is not None:
            self.fault_plane.bind_bus(self.probe_bus)
            self.fault_plane.bind_bus(self.gauge_bus)
        self.probes: List[Any] = []
        self.periodic_probes: List[Any] = []
        self.gauges: List[Gauge] = []
        for binding in spec.instruments:
            if isinstance(binding, GaugeBinding):
                gauge = binding.factory(self)
                self.gauge_manager.create(gauge, entities=binding.entities)
                self.gauges.append(gauge)
            elif isinstance(binding, ProbeBinding):
                probe = binding.factory(self)
                self.probes.append(probe)
                if binding.periodic:
                    self.periodic_probes.append(probe)
            else:  # pragma: no cover - spec typo guard
                raise TypeError(f"unknown instrument binding {binding!r}")

        # 8: close the monitoring half of the loop, one updater per shard,
        # all behind one wake gate (over no thresholds it wakes on every
        # report, which the serial fingerprints pin).
        self.wake_gate = ThresholdGate(spec.wake_thresholds)
        self.updaters = [
            PropertyUpdater(
                model, self.gauge_bus.shard(k), self.manager.shard_proxy(k),
                property_map=spec.gauge_property_map,
                gate=self.wake_gate,
            )
            for k, model in enumerate(models)
        ]

        # 9 (fault mode only): bind the remaining injection surfaces —
        # probes for dropout windows, application components for outages.
        if self.fault_plane is not None:
            for probe in self.probes:
                self.fault_plane.bind_probe(probe)
            app.bind_faults(self.fault_plane)

        self._stopped = False

    @property
    def sharded(self) -> bool:
        """True: every plane's model is a partition, one shard included
        (``model.shard(k)`` is shard ``k``'s system)."""
        return True

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start every periodic probe (in instrument order), then faults."""
        for probe in self.periodic_probes:
            probe.start()
        if self.fault_plane is not None:
            self.fault_plane.start()

    def stop(self) -> None:
        """Stop periodic probes, flushing any buffered batches.

        Idempotent, and safe on a runtime that never started.  The
        experiment runner calls this on the error/abort path too, so
        batched probes (``CallbackProbe(batch=N)``) never silently drop
        their buffered tail when a run dies mid-burst.
        """
        if self._stopped:
            return
        self._stopped = True
        for probe in self.periodic_probes:
            probe.stop()

    # -- reporting ---------------------------------------------------------
    @property
    def history(self):
        return self.manager.history

    def _bus_section(self) -> Dict[str, float]:
        """Monitoring-overhead numbers for the experiment harness."""
        return {
            "probe_published": self.probe_bus.published,
            "probe_mean_transit": self.probe_bus.mean_transit,
            "gauge_published": self.gauge_bus.published,
            "gauge_mean_transit": self.gauge_bus.mean_transit,
        }

    def _gauge_section(self) -> Dict[str, int]:
        return {
            "created": self.gauge_manager.created,
            "redeployments": self.gauge_manager.redeployments,
        }

    def _constraint_section(self) -> Dict[str, int]:
        """Incremental-checker counters for the evaluation hot path
        (see docs/performance.md): evaluations, full vs incremental
        passes, and per-scope evaluate/reuse totals."""
        return {"evaluations": self.manager.evaluations,
                **self.manager.constraint_stats}

    def _telemetry_section(self) -> Dict[str, int]:
        """Telemetry counters: volume and wakeup suppression.

        ``samples`` counts probe observations, ``batches`` the
        column-carrying messages among the probe reports, ``late`` (present
        only when non-zero) the pushed samples an ``IngestProbe``
        dropped for their capture time.  ``wakeups`` /
        ``suppressed_reports`` are the wake gate's: with no thresholds
        every applied gauge report is a wakeup and none is suppressed.
        """
        stats = {
            "samples": sum(int(getattr(p, "samples", 0)) for p in self.probes),
            "batches": sum(int(getattr(p, "batches", 0)) for p in self.probes),
        }
        late = sum(getattr(p, "late", 0) for p in self.probes)
        if late:  # ingest probes only, and only once a sample came out of order
            stats["late"] = late
        stats.update(self.wake_gate.stats())
        return stats

    def _shard_sections(self) -> Tuple[ShardStats, ...]:
        """Per-shard counter sections (none for one shard: the rollup is
        that shard)."""
        if len(self.managers) == 1:
            return ()
        sections = []
        for k, manager in enumerate(self.managers):
            probe = self.probe_bus.shard(k)
            gauge = self.gauge_bus.shard(k)
            sections.append(
                ShardStats(
                    shard=k,
                    bus={
                        "probe_published": probe.published,
                        "probe_mean_transit": probe.mean_transit,
                        "gauge_published": gauge.published,
                        "gauge_mean_transit": gauge.mean_transit,
                    },
                    constraints={
                        "evaluations": manager.evaluations,
                        **manager.constraint_stats,
                    },
                    repairs=manager.repair_stats(),
                )
            )
        return tuple(sections)

    def stats(self) -> RuntimeStats:
        """Every counter section at once, as one typed, frozen
        :class:`~repro.runtime.stats.RuntimeStats` snapshot.

        ``stats().to_dict()`` reproduces the historical dict shape
        exactly: ``faults`` appears only when a fault plane exists and
        ``shards`` only on a plane of more than one shard."""
        return RuntimeStats(
            bus=self._bus_section(),
            gauges=self._gauge_section(),
            constraints=self._constraint_section(),
            repairs=self.manager.repair_stats(),
            telemetry=self._telemetry_section(),
            faults=self.fault_plane.stats() if self.fault_plane is not None else None,
            shards=self._shard_sections(),
        )
