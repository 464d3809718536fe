"""Gauges: the middle monitoring level (paper Figure 4).

"Gauges consume and interpret lower-level probe measurements in terms of
higher-level model properties" — here, windowed averages reported
periodically on the gauge bus.  The windows are what give the adaptation
loop its detection lag (a latency spike must persist long enough to drag
the window mean over the threshold), matching the paper's observed delay
between cause and repair.

Probe messages arrive in two shapes.  Per-sample messages carry one
scalar attribute and are fed to ``_consume`` (the pinned scalar path);
columnar messages carry parallel ``times``/``values`` tuples of floats
(one per :class:`~repro.monitoring.probes.CallbackProbe` flush) and are
routed to ``_consume_batch`` — one delivery per burst instead of per
sample (X8).  Only a columnar :class:`WindowedMeanGauge` turns a batch
into arrays (:meth:`~repro.util.windows.ColumnarWindow.add_many`); the
other gauges read the floats as they came.
"""

from __future__ import annotations

from typing import Optional

from repro.bus.bus import EventBus, Subscription
from repro.bus.messages import Message
from repro.sim.kernel import Simulator
from repro.util.windows import EWMA, ColumnarWindow, SlidingWindow

__all__ = [
    "Gauge",
    "AverageLatencyGauge",
    "LoadGauge",
    "BandwidthGauge",
    "UtilizationGauge",
    "BacklogGauge",
    "WindowedMeanGauge",
    "EwmaGauge",
    "LatestValueGauge",
]


class Gauge:
    """Base gauge: consumes one probe subject, reports one model property.

    Subclasses define ``_consume(message)`` and ``_value()``; the base
    runs the report tick and handles activation state.  A gauge reports
    ``gauge.<kind>.<target>`` messages with a ``value`` attribute plus
    ``mapping`` hints for the model updater.  Subclasses that pair with
    batching probes additionally implement ``_consume_batch(times,
    values)``; the base routes any message carrying a ``values`` column
    there.
    """

    kind: str = "gauge"

    def __init__(
        self,
        sim: Simulator,
        probe_bus: EventBus,
        gauge_bus: EventBus,
        target: str,
        probe_subject: str,
        period: float = 5.0,
    ):
        if period <= 0:
            raise ValueError(f"gauge period must be positive, got {period}")
        self.sim = sim
        self.probe_bus = probe_bus
        self.gauge_bus = gauge_bus
        self.target = target
        self.period = float(period)
        self.active = False
        self.reports = 0
        self._sub: Optional[Subscription] = probe_bus.subscribe(
            probe_subject, self._on_probe
        )
        #: identity of the live tick chain (None: not ticking); a pending
        #: tick that carries another token belongs to a disposed chain
        self._ticker: Optional[object] = None
        self._subject: Optional[str] = None

    @property
    def name(self) -> str:
        return f"gauge.{self.kind}.{self.target}"

    # -- lifecycle ---------------------------------------------------------
    def activate(self) -> None:
        if self.active:
            return
        self.active = True
        if self._ticker is None:
            # ``kind`` is final only after the subclass constructors ran
            self._subject = self.name
            self._ticker = ticker = object()
            # start hop: the first wait begins via the scheduler, never
            # synchronously inside activate()
            self.sim.schedule_run(0.0, Gauge._arm, self, ticker)

    def deactivate(self, clear: bool = True) -> None:
        """Stop reporting; optionally drop accumulated window state.

        Destroy-and-recreate redeployment (the paper's default) loses the
        window; the cached-gauge ablation keeps it (``clear=False``).
        """
        self.active = False
        if clear:
            self._clear()

    def dispose(self) -> None:
        self.deactivate()
        if self._sub is not None:
            self.probe_bus.unsubscribe(self._sub)
            self._sub = None
        self._ticker = None

    # -- machinery ------------------------------------------------------------
    # Ticks are scheduled as ``Gauge._tick(gauge, ticker)`` kernel-run
    # items: one function for every gauge, so the gauges due at one
    # instant are one action and no method object is bound per tick.
    def _arm(self, ticker: object) -> None:
        if ticker is self._ticker:
            self.sim.schedule_run(self.period, Gauge._tick, self, ticker)

    def _tick(self, ticker: object) -> None:
        """One period: report (when active and there is a value), re-arm.

        An inactive gauge keeps ticking silently, so re-activation stays
        on the original report grid.
        """
        if ticker is not self._ticker:
            return
        if self.active:
            value = self._value()
            if value is not None:
                self.reports += 1
                subject = self._subject
                self.gauge_bus.publish_subject(
                    subject, sender=subject, target=self.target, value=value
                )
        self.sim.schedule_run(self.period, Gauge._tick, self, ticker)

    def _on_probe(self, message: Message) -> None:
        if not self.active:
            return
        values = message.get("values")
        if values is None:
            self._consume(message)
        else:
            self._consume_batch(message.get("times"), values)

    # -- subclass API ----------------------------------------------------------
    def _consume(self, message: Message) -> None:  # pragma: no cover
        raise NotImplementedError

    def _consume_batch(self, times, values) -> None:  # pragma: no cover
        raise NotImplementedError(
            f"{type(self).__name__} does not consume batched probe messages"
        )

    def _value(self) -> Optional[float]:  # pragma: no cover
        raise NotImplementedError

    def _clear(self) -> None:  # pragma: no cover
        raise NotImplementedError


class AverageLatencyGauge(Gauge):
    """Windowed mean of completed-request latencies for one client."""

    kind = "latency"

    def __init__(
        self,
        sim,
        probe_bus,
        gauge_bus,
        client: str,
        period: float = 5.0,
        horizon: float = 30.0,
    ):
        super().__init__(
            sim,
            probe_bus,
            gauge_bus,
            client,
            probe_subject=f"probe.latency.{client}",
            period=period,
        )
        self.window = SlidingWindow(horizon)

    def _consume(self, message: Message) -> None:
        self.window.add(self.sim.now, float(message["latency"]))

    def _value(self) -> Optional[float]:
        return self.window.mean(self.sim.now)

    def _clear(self) -> None:
        self.window.clear()


class LoadGauge(Gauge):
    """Windowed mean queue length for one server group."""

    kind = "load"

    def __init__(
        self,
        sim,
        probe_bus,
        gauge_bus,
        group: str,
        period: float = 5.0,
        horizon: float = 30.0,
    ):
        super().__init__(
            sim,
            probe_bus,
            gauge_bus,
            group,
            probe_subject=f"probe.load.{group}",
            period=period,
        )
        self.window = SlidingWindow(horizon)

    def _consume(self, message: Message) -> None:
        self.window.add(self.sim.now, float(message["length"]))

    def _value(self) -> Optional[float]:
        return self.window.mean(self.sim.now)

    def _clear(self) -> None:
        self.window.clear()


class BacklogGauge(Gauge):
    """Windowed mean waiting-item count for one pipeline stage."""

    kind = "backlog"

    def __init__(
        self,
        sim,
        probe_bus,
        gauge_bus,
        stage: str,
        period: float = 5.0,
        horizon: float = 30.0,
    ):
        super().__init__(
            sim,
            probe_bus,
            gauge_bus,
            stage,
            probe_subject=f"probe.backlog.{stage}",
            period=period,
        )
        self.window = SlidingWindow(horizon)

    def _consume(self, message: Message) -> None:
        self.window.add(self.sim.now, float(message["length"]))

    def _value(self) -> Optional[float]:
        return self.window.mean(self.sim.now)

    def _clear(self) -> None:
        self.window.clear()


class BandwidthGauge(Gauge):
    """Latest Remos-predicted client <-> group bandwidth for one client."""

    kind = "bandwidth"

    def __init__(self, sim, probe_bus, gauge_bus, client: str, period: float = 5.0):
        super().__init__(
            sim,
            probe_bus,
            gauge_bus,
            client,
            probe_subject=f"probe.bandwidth.{client}",
            period=period,
        )
        self._last: Optional[float] = None

    def _consume(self, message: Message) -> None:
        self._last = float(message["bandwidth"])

    def _value(self) -> Optional[float]:
        return self._last

    def _clear(self) -> None:
        self._last = None


class _ValueGauge(Gauge):
    """Base for the generic gauges: per-instance kind, consumes ``value``.

    The application-specific gauges above each bind a probe subject and
    attribute name; these generic ones pair with
    :class:`~repro.monitoring.probes.CallbackProbe`, which always
    publishes a ``value`` attribute on ``probe.<kind>.<target>`` (or
    ``times``/``values`` float tuples when batching).
    """

    def __init__(
        self, sim, probe_bus, gauge_bus, kind: str, target: str, period: float = 5.0
    ):
        super().__init__(
            sim,
            probe_bus,
            gauge_bus,
            target,
            probe_subject=f"probe.{kind}.{target}",
            period=period,
        )
        self.kind = kind  # instance attribute shadows the class default


class WindowedMeanGauge(_ValueGauge):
    """Sliding-window mean of a CallbackProbe's reported values.

    ``columnar=True`` swaps the python :class:`SlidingWindow` for the
    numpy :class:`ColumnarWindow` — identical aggregates bit for bit,
    but a batched probe flush becomes one vectorized ``add_many`` call.
    Note the two paths timestamp differently: per-sample messages use
    delivery time (the scalar reference), batched messages carry their
    capture times.
    """

    def __init__(
        self,
        sim,
        probe_bus,
        gauge_bus,
        kind: str,
        target: str,
        period: float = 5.0,
        horizon: float = 30.0,
        columnar: bool = False,
    ):
        super().__init__(sim, probe_bus, gauge_bus, kind, target, period=period)
        self.columnar = bool(columnar)
        self.window = ColumnarWindow(horizon) if columnar else SlidingWindow(horizon)

    def _consume(self, message: Message) -> None:
        self.window.add(self.sim.now, float(message["value"]))

    def _consume_batch(self, times, values) -> None:
        self.window.add_many(times, values)

    def _value(self) -> Optional[float]:
        return self.window.mean(self.sim.now)

    def _clear(self) -> None:
        self.window.clear()


class EwmaGauge(_ValueGauge):
    """Exponentially-weighted mean of a CallbackProbe's reported values."""

    def __init__(
        self,
        sim,
        probe_bus,
        gauge_bus,
        kind: str,
        target: str,
        period: float = 5.0,
        tau: float = 60.0,
    ):
        super().__init__(sim, probe_bus, gauge_bus, kind, target, period=period)
        self.tau = tau
        self._ewma = EWMA(tau)

    def _consume(self, message: Message) -> None:
        self._ewma.add(self.sim.now, float(message["value"]))

    def _consume_batch(self, times, values) -> None:
        # The EWMA fold is inherently sequential; batching still saves
        # the per-sample bus/message overhead upstream.
        add = self._ewma.add
        for time, value in zip(times, values):
            add(time, value)

    def _value(self) -> Optional[float]:
        return self._ewma.value

    def _clear(self) -> None:
        self._ewma = EWMA(self.tau)


class LatestValueGauge(_ValueGauge):
    """Most recent value reported by a CallbackProbe (no smoothing)."""

    def __init__(
        self, sim, probe_bus, gauge_bus, kind: str, target: str, period: float = 5.0
    ):
        super().__init__(sim, probe_bus, gauge_bus, kind, target, period=period)
        self._last: Optional[float] = None

    def _consume(self, message: Message) -> None:
        self._last = float(message["value"])

    def _consume_batch(self, times, values) -> None:
        self._last = values[-1]

    def _value(self) -> Optional[float]:
        return self._last

    def _clear(self) -> None:
        self._last = None


class UtilizationGauge(Gauge):
    """EWMA of a group's compute utilization (drives the shrink repair)."""

    kind = "utilization"

    def __init__(
        self,
        sim,
        probe_bus,
        gauge_bus,
        group: str,
        period: float = 5.0,
        tau: float = 60.0,
    ):
        super().__init__(
            sim,
            probe_bus,
            gauge_bus,
            group,
            probe_subject=f"probe.utilization.{group}",
            period=period,
        )
        self.tau = tau
        self._ewma = EWMA(tau)

    def _consume(self, message: Message) -> None:
        self._ewma.add(self.sim.now, float(message["utilization"]))

    def _value(self) -> Optional[float]:
        return self._ewma.value

    def _clear(self) -> None:
        self._ewma = EWMA(self.tau)
