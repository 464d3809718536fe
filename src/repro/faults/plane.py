"""The fault plane: deterministic failure injection as sim processes.

The source paper's premise is adaptation under *grid-resource failure*,
yet a simulator that cannot break anything on purpose only ever
exercises the happy path.  The :class:`FaultPlane` closes that gap: it
turns a frozen :class:`~repro.faults.spec.FaultSpec` into ordinary
simulation processes and hooks —

* **component outages** — each target cycles up/down on its own seeded
  process, calling the ``on_fail``/``on_recover`` callbacks the
  application registered via :meth:`bind_component`;
* **effector faults** — :meth:`wrap_translator` interposes a
  :class:`FaultyTranslator` that makes committed runtime intents raise,
  silently no-op, or hang (never complete);
* **probe dropout** — bound probes go dark for sampled windows (their
  ``enabled`` flag is the paper's "probe deleted / redeployed" surface);
* **bus delivery faults** — bound buses drop matching deliveries
  per-(subscriber, message) and count them as dead letters.

Determinism: every injection site draws from its own named stream
derived from ``spec.seed`` (``faults.outage.S2``, ``faults.probe.p``,
``faults.bus.probe-bus``, ``faults.effector``), so enabling one fault
class never perturbs another's schedule, and a control run (outages
only) flaps components identically to the adapted run that also injects
effector/probe/bus faults.

The plane is deliberately runtime-agnostic: scenarios without an
adaptation runtime (control runs) build one directly and bind their
application objects; :class:`~repro.runtime.core.AdaptationRuntime`
builds one from ``spec.faults`` and wires the managed application
through :meth:`~repro.runtime.app.ManagedApplication.bind_faults`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.spec import EffectorFaultSpec, FaultSpec, OutageSpec
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.trace import Trace
from repro.util.rng import derive_rng

__all__ = ["FaultPlane", "FaultyTranslator"]


class FaultyTranslator:
    """Wraps an intent executor with seeded effector failure modes.

    Per matching intent one uniform draw picks raise / no-op / hang /
    pass-through (see :class:`~repro.faults.spec.EffectorFaultSpec`).
    A **raise** fails the whole execution before side effects: nothing
    is applied and ``on_done`` is invoked with an error string — the
    resilient repair engine aborts the still-open transaction and
    retries.  A **no-op** silently discards one intent; the rest
    execute and complete normally (the model now lies about the
    runtime, until monitoring re-detects the violation).  A **hang**
    executes the intents before the hung one but never signals
    completion — only a repair timeout gets the engine's slot back.
    """

    def __init__(
        self,
        inner: Any,
        spec: EffectorFaultSpec,
        sim: Simulator,
        rng,
        trace: Trace,
        counters: Dict[str, int],
    ):
        self.inner = inner
        self.spec = spec
        self.sim = sim
        self._rng = rng
        self.trace = trace
        self.counters = counters

    def execute(self, intents, on_done=None):
        spec = self.spec
        survivors: List[Any] = []
        error: Optional[str] = None
        hang = False
        for intent in intents:
            if not spec.applies_to(intent.op):
                survivors.append(intent)
                continue
            draw = float(self._rng.random())
            if draw < spec.fail_prob:
                error = f"EffectorRaise:{intent.op}"
                self.counters["effector_raised"] += 1
                self.trace.emit(self.sim.now, "fault.effector_raise", op=intent.op)
                break
            if draw < spec.fail_prob + spec.noop_prob:
                self.counters["effector_noops"] += 1
                self.trace.emit(self.sim.now, "fault.effector_noop", op=intent.op)
                continue
            if draw < spec.fail_prob + spec.noop_prob + spec.hang_prob:
                hang = True
                self.counters["effector_hangs"] += 1
                self.trace.emit(self.sim.now, "fault.effector_hang", op=intent.op)
                break
            survivors.append(intent)
        if error is not None:
            if on_done is not None:
                self.sim.schedule(0.0, on_done, error)
            return None
        if hang:
            # Intents before the hung one still execute; completion is
            # never signalled (the repair timeout is the only way out).
            if survivors:
                return self.inner.execute(survivors, on_done=None)
            return None
        if survivors:
            return self.inner.execute(survivors, on_done=on_done)
        if on_done is not None:
            self.sim.schedule(0.0, on_done)
        return None


class FaultPlane:
    """Injects a :class:`FaultSpec` into one run.  See module doc.

    Usage: construct, bind injection surfaces (components, probes,
    buses, translator), then :meth:`start` once — construction itself
    schedules nothing, so building a plane never perturbs event order.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: FaultSpec,
        trace: Optional[Trace] = None,
    ):
        spec.validate()
        self.sim = sim
        self.spec = spec
        self.trace = trace if trace is not None else Trace()
        self._components: Dict[str, Tuple[Callable[[], None], Callable[[], None]]] = {}
        self._probes: List[Any] = []
        self._buses: List[Any] = []
        self._started = False
        self.down: set = set()
        self.counters: Dict[str, int] = {
            "crashes": 0,
            "recoveries": 0,
            "probe_dropouts": 0,
            "probe_recoveries": 0,
            "effector_raised": 0,
            "effector_noops": 0,
            "effector_hangs": 0,
        }

    def _rng(self, key: str):
        return derive_rng(self.spec.seed, key)

    # -- binding injection surfaces ----------------------------------------
    def bind_component(
        self,
        name: str,
        on_fail: Callable[[], None],
        on_recover: Callable[[], None],
    ) -> None:
        """Register a crashable component's fail/recover callbacks."""
        self._components[name] = (on_fail, on_recover)

    def bind_probe(self, probe: Any) -> None:
        """Register a probe (``.name``/``.enabled``) for dropout windows."""
        self._probes.append(probe)

    def bind_bus(self, bus: Any) -> None:
        """Install the delivery-drop filter on an event bus."""
        spec = self.spec.bus
        if spec is None or not self.spec.enabled:
            return
        if not spec.applies_to_bus(bus.name):
            return
        rng = self._rng(f"faults.bus.{bus.name}")

        def drop(sub, msg) -> bool:
            if not spec.applies_to_subject(msg.subject):
                return False
            return float(rng.random()) < spec.drop_prob

        bus.fault_injector = drop
        self._buses.append(bus)

    def wrap_translator(self, translator: Any) -> Any:
        """Interpose effector faults; identity when none are configured."""
        spec = self.spec.effector
        if spec is None or not self.spec.enabled or translator is None:
            return translator
        return FaultyTranslator(
            translator,
            spec,
            self.sim,
            self._rng("faults.effector"),
            self.trace,
            self.counters,
        )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Launch outage and probe-dropout processes (idempotent)."""
        if self._started or not self.spec.enabled:
            return
        self._started = True
        for outage in self.spec.outages:
            for target in outage.targets:
                if target not in self._components:
                    raise ReproError(
                        f"fault plane: outage target {target!r} was never "
                        f"bound via bind_component"
                    )
                Process(
                    self.sim,
                    self._outage_proc(outage, target),
                    name=f"fault-outage-{target}",
                )
        dropout = self.spec.probe_dropouts
        if dropout is not None:
            for probe in self._probes:
                name = getattr(probe, "name", "")
                if dropout.targets and not any(
                    token in name for token in dropout.targets
                ):
                    continue
                Process(
                    self.sim,
                    self._dropout_proc(dropout, probe),
                    name=f"fault-dropout-{name}",
                )

    def _outage_proc(self, outage: OutageSpec, name: str):
        on_fail, on_recover = self._components[name]
        rng = self._rng(f"faults.outage.{name}")
        if outage.start > 0:
            yield self.sim.timeout(outage.start)
        cycles = 0
        while True:
            yield self.sim.timeout(float(rng.exponential(outage.mtbf)))
            if math.isfinite(outage.end) and self.sim.now >= outage.end:
                return
            self.counters["crashes"] += 1
            self.down.add(name)
            self.trace.emit(self.sim.now, "fault.crash", component=name)
            on_fail()
            yield self.sim.timeout(float(rng.exponential(outage.outage_mean)))
            self.counters["recoveries"] += 1
            self.down.discard(name)
            self.trace.emit(self.sim.now, "fault.recover", component=name)
            on_recover()
            cycles += 1
            if outage.max_outages and cycles >= outage.max_outages:
                return

    def _dropout_proc(self, dropout, probe):
        rng = self._rng(f"faults.probe.{getattr(probe, 'name', '')}")
        if dropout.start > 0:
            yield self.sim.timeout(dropout.start)
        while True:
            yield self.sim.timeout(float(rng.exponential(dropout.mtbd)))
            if math.isfinite(dropout.end) and self.sim.now >= dropout.end:
                return
            self.counters["probe_dropouts"] += 1
            self.trace.emit(
                self.sim.now,
                "fault.probe_dark",
                probe=getattr(probe, "name", ""),
            )
            probe.enabled = False
            yield self.sim.timeout(float(rng.exponential(dropout.dropout_mean)))
            self.counters["probe_recoveries"] += 1
            self.trace.emit(
                self.sim.now,
                "fault.probe_restored",
                probe=getattr(probe, "name", ""),
            )
            probe.enabled = True

    # -- reporting ----------------------------------------------------------
    def is_down(self, name: str) -> bool:
        return name in self.down

    def stats(self) -> Dict[str, Any]:
        """All fault counters, ready for ``RunResult.fault_stats``."""
        stats: Dict[str, Any] = dict(self.counters)
        stats["components_down"] = len(self.down)
        dead = sum(int(getattr(bus, "dead_letters", 0)) for bus in self._buses)
        stats["dead_letters"] = dead
        by_sub: Dict[str, int] = {}
        for bus in self._buses:
            for sid, count in getattr(bus, "dead_letters_by_sid", {}).items():
                by_sub[f"{bus.name}:{sid}"] = count
        if by_sub:
            stats["dead_letters_by_subscriber"] = by_sub
        return stats
