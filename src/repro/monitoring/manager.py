"""Gauge lifecycle management (the paper's gauge protocol).

"Gauges are implemented using our gauge library which implements a gauge
protocol that we have defined for gauge creation, communication, and
deletion" (§4).  Creation charges a deployment delay before the gauge
becomes active; repairs *redeploy* the gauges of affected entities, which
blanks them for the redeployment window — the dominant component of the
paper's 30 s repair time and a real monitoring blind spot.

Every runtime also has one :class:`ThresholdGate`: gauge reports only
wake the incremental constraint checker when the reported aggregate
crosses (or un-crosses) an invariant threshold, with a hysteresis band
so values hovering at the threshold do not flap the checker on and off.
Steady-state gauge ticks then cost zero model-query work — the model
property is still updated, but no evaluation runs.  A kind without a
threshold always wakes, so a gate over no thresholds wakes on every
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import GaugeError
from repro.monitoring.gauges import Gauge
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace

__all__ = ["GaugeManager", "ThresholdGate", "WakeThreshold"]


@dataclass(frozen=True)
class WakeThreshold:
    """Wake condition for one gauge kind.

    ``direction="above"`` means the invariant is threatened when the
    value exceeds ``threshold`` (latency, backlog, share); ``"below"``
    when it drops under it (utilization).  Once crossed, the state only
    clears after the value retreats past ``threshold ∓ band`` — the
    hysteresis that stops boundary-hugging values from flapping.  A
    ``math.inf`` threshold (with ``direction="above"``) never crosses:
    the idiom for purely informational kinds whose reports should never
    wake the checker.
    """

    threshold: float
    band: float = 0.0
    direction: str = "above"

    def __post_init__(self) -> None:
        if self.direction not in ("above", "below"):
            raise ValueError(
                f"direction must be 'above' or 'below', got {self.direction!r}"
            )
        if math.isnan(self.threshold):
            raise ValueError("wake threshold must not be NaN")
        if not (self.band >= 0.0):
            raise ValueError(f"hysteresis band must be >= 0, got {self.band}")


class ThresholdGate:
    """Decides, per gauge report, whether to wake the constraint checker.

    Tracks a crossed/uncrossed state per ``(kind, target)``.  A report
    wakes the checker when its value is crossed *or was crossed before*
    (so the checker sees both the violation and the recovery); in-band
    healthy reports are suppressed.  Kinds with no registered
    :class:`WakeThreshold` always wake — unknown telemetry is never
    silently dropped.
    """

    def __init__(self, thresholds: Mapping[str, WakeThreshold]):
        self.thresholds: Dict[str, WakeThreshold] = dict(thresholds)
        self._crossed: Dict[Tuple[str, str], bool] = {}
        self.wakeups = 0
        self.suppressed = 0

    def should_wake(self, kind: str, target: str, value: float) -> bool:
        spec = self.thresholds.get(kind)
        if spec is None:
            self.wakeups += 1
            return True
        key = (kind, target)
        was = self._crossed.get(key, False)
        # Hysteresis: once crossed, only a retreat past threshold ∓ band
        # clears the state.
        if spec.direction == "above":
            limit = spec.threshold - spec.band if was else spec.threshold
            crossed = value > limit
        else:
            limit = spec.threshold + spec.band if was else spec.threshold
            crossed = value < limit
        self._crossed[key] = crossed
        if crossed or was:
            self.wakeups += 1
            return True
        self.suppressed += 1
        return False

    def stats(self) -> Dict[str, int]:
        return {"wakeups": self.wakeups, "suppressed_reports": self.suppressed}


class GaugeManager:
    """Registry + lifecycle for all gauges of one deployment."""

    def __init__(
        self,
        sim: Simulator,
        trace: Optional[Trace] = None,
        create_delay: float = 14.0,
        cached: bool = False,
    ):
        self.sim = sim
        self.trace = trace if trace is not None else Trace()
        self.create_delay = float(create_delay)
        self.cached = cached  # cached gauges survive redeploys with state
        self._gauges: Dict[str, Gauge] = {}
        self._entity_index: Dict[str, List[str]] = {}
        self.created = 0
        self.redeployments = 0

    # -- creation/deletion ---------------------------------------------------
    def create(
        self,
        gauge: Gauge,
        entities: Optional[List[str]] = None,
        immediate: bool = False,
    ) -> Gauge:
        """Register and deploy a gauge.

        ``entities`` lists the runtime entities this gauge observes (used
        by :meth:`redeploy_for`); defaults to the gauge's target.  With
        ``immediate`` the deployment delay is skipped (initial bring-up
        before the experiment's measurement window, like the paper's
        2-minute quiescent start).
        """
        if gauge.name in self._gauges:
            raise GaugeError(f"gauge {gauge.name} already exists")
        self._gauges[gauge.name] = gauge
        for entity in entities or [gauge.target]:
            self._entity_index.setdefault(entity, []).append(gauge.name)
        self.created += 1
        delay = 0.0 if immediate else self.create_delay
        self.trace.emit(self.sim.now, "gauge.create", gauge=gauge.name, delay=delay)
        if delay > 0:
            self.sim.schedule(delay, gauge.activate)
        else:
            gauge.activate()
        return gauge

    def delete(self, name: str) -> None:
        gauge = self._gauges.pop(name, None)
        if gauge is None:
            raise GaugeError(f"no gauge {name}")
        gauge.dispose()
        for names in self._entity_index.values():
            if name in names:
                names.remove(name)
        self.trace.emit(self.sim.now, "gauge.delete", gauge=name)

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            raise GaugeError(f"no gauge {name}") from None

    @property
    def gauges(self) -> List[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def gauges_for(self, entity: str) -> List[Gauge]:
        return [
            self._gauges[n]
            for n in self._entity_index.get(entity, ())
            if n in self._gauges
        ]

    # -- redeployment (repair-time) ----------------------------------------------
    def redeploy_for(self, entity: str, window: float) -> int:
        """Blank and re-deploy every gauge observing ``entity``.

        Destroy-and-create (default) loses gauge state; with ``cached``
        the state survives (the paper's proposed improvement).  Returns
        the number of gauges redeployed.
        """
        gauges = self.gauges_for(entity)
        for gauge in gauges:
            gauge.deactivate(clear=not self.cached)
            self.sim.schedule(max(0.0, window), gauge.activate)
        if gauges:
            self.redeployments += 1
            self.trace.emit(
                self.sim.now,
                "gauge.redeploy",
                entity=entity,
                gauges=len(gauges),
                window=window,
            )
        return len(gauges)
