"""Gauges: the middle monitoring level (paper Figure 4).

"Gauges consume and interpret lower-level probe measurements in terms of
higher-level model properties" — here, windowed averages reported
periodically on the gauge bus.  The windows are what give the adaptation
loop its detection lag (a latency spike must persist long enough to drag
the window mean over the threshold), matching the paper's observed delay
between cause and repair.

Every probe publishes one message shape on ``probe.<kind>.<target>``
(:mod:`repro.monitoring.probes`), so three gauges cover every style:
:class:`WindowedMeanGauge` (a sliding-window mean), :class:`EwmaGauge`
(an exponentially weighted mean) and :class:`LatestValueGauge` (the
last value).  A gauge is ``(kind, target)``: it subscribes to
``probe.<kind>.<target>`` and reports ``gauge.<kind>.<target>``.  A
per-sample message's float ``value`` is fed to ``_consume``; a batch
message's parallel ``times``/``values`` tuples (one per probe flush,
``batch > 1``) go to ``_consume_batch`` — one delivery per burst
instead of per sample.  A :class:`WindowedMeanGauge` folds a batch into
its :class:`~repro.util.windows.SlidingWindow`, an :class:`EwmaGauge`
into its :class:`~repro.util.windows.EWMA`, with one ``add_many`` call.

A gauge reports on a tick chain, one kernel-run item ``(gauge,
ticker)`` per period.  The gauges due at one instant are one run, which
the kernel hands to :meth:`Gauge._tick` *whole*
(:func:`~repro.sim.kernel.takes_whole_runs`): one call reads every due
value in item order, then publishes the reports as one flat list
(:meth:`~repro.bus.bus.EventBus.publish_reports`) and queues the
re-arms as one run — the line each tick's own publish and re-arm would
have built, item for item.
"""

from __future__ import annotations

from typing import Optional

from repro.bus.bus import EventBus, Subscription, fixed_delay
from repro.bus.messages import Message
from repro.sim.kernel import Simulator, takes_whole_runs
from repro.util.windows import EWMA, SlidingWindow

__all__ = ["Gauge", "WindowedMeanGauge", "EwmaGauge", "LatestValueGauge"]


class Gauge:
    """Base gauge: consumes ``probe.<kind>.<target>``, reports one property.

    Subclasses define ``_consume(message)``, ``_consume_batch(times,
    values)``, ``_value()`` and ``_clear()``; the base runs the report
    tick and handles activation state, and routes any message carrying a
    ``values`` column to ``_consume_batch``.  A gauge reports
    ``gauge.<kind>.<target>`` messages with ``target`` and ``value``.
    """

    def __init__(
        self,
        sim: Simulator,
        probe_bus: EventBus,
        gauge_bus: EventBus,
        kind: str,
        target: str,
        period: float = 5.0,
    ):
        if period <= 0:
            raise ValueError(f"gauge period must be positive, got {period}")
        self.sim = sim
        self.probe_bus = probe_bus
        self.gauge_bus = gauge_bus
        self.kind = kind
        self.target = target
        self.period = float(period)
        self.active = False
        self.reports = 0
        self._sub: Optional[Subscription] = probe_bus.subscribe(
            f"probe.{kind}.{target}", self._on_probe
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
            self._subject = self.name
            self._ticker = ticker = object()
            # start hop: the first wait begins via the scheduler, never
            # synchronously inside activate()
            self.sim.schedule_items(0.0, Gauge._arm, 2, (self, ticker))

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
    # Ticks are scheduled as ``Gauge._tick`` kernel-run items ``(gauge,
    # ticker)``: one function for every gauge, so the gauges due at one
    # instant are one action and no method object is bound per tick.
    def _arm(self, ticker: object) -> None:
        if ticker is self._ticker:
            self.sim.schedule_items(self.period, Gauge._tick, 2, (self, ticker))

    @staticmethod
    @takes_whole_runs
    def _tick(fields) -> None:
        """One period of every gauge in the run: report (when active and
        there is a value), re-arm.

        An inactive gauge keeps ticking silently, so re-activation stays
        on the original report grid; a disposed chain's tick stops.
        Reports and re-arms are handed on per stretch of items sharing a
        gauge bus and a period, or per item when a delivery could land
        on the re-arm instant (a per-message delivery model, or a fixed
        delay equal to the period): there the line interleaves the two
        item by item.  If ``_value`` raises, the items before it are
        handed on first and the kernel puts back the items after it.
        """
        reports: list = []  # subject, attributes, sender per report
        arms: list = []  # gauge, ticker per re-arm
        bus = period = sim = delay = None
        each = False  # hand on per item
        try:
            for gauge, ticker in zip(fields, fields):
                if ticker is not gauge._ticker:
                    continue
                if gauge.period != period or gauge.gauge_bus is not bus:
                    if arms:
                        _hand_on(sim, bus, period, reports, arms)
                    if gauge.gauge_bus is not bus:
                        bus, sim = gauge.gauge_bus, gauge.sim
                        # what every delivery takes; None: the model
                        # decides per message
                        delay = fixed_delay(bus.delivery)
                    period = gauge.period
                    each = delay is None or sim.now + delay == sim.now + period
                if gauge.active:
                    value = gauge._value()
                    if value is not None:
                        gauge.reports += 1
                        subject = gauge._subject
                        reports.append(subject)
                        reports.append({"target": gauge.target, "value": value})
                        reports.append(subject)
                arms.append(gauge)
                arms.append(ticker)
                if each:
                    _hand_on(sim, bus, period, reports, arms)
        except BaseException:
            if arms:
                _hand_on(sim, bus, period, reports, arms)
            raise
        if arms:
            _hand_on(sim, bus, period, reports, arms)

    def _on_probe(self, message: Message) -> None:
        if not self.active:
            return
        attributes = message.attributes
        values = attributes.get("values")
        if values is None:
            self._consume(message)
        else:
            self._consume_batch(attributes.get("times"), values)

    # -- subclass API ----------------------------------------------------------
    def _consume(self, message: Message) -> None:  # pragma: no cover
        raise NotImplementedError

    def _consume_batch(self, times, values) -> None:  # pragma: no cover
        raise NotImplementedError

    def _value(self) -> Optional[float]:  # pragma: no cover
        raise NotImplementedError

    def _clear(self) -> None:  # pragma: no cover
        raise NotImplementedError


def _hand_on(sim: Simulator, bus, period: float, reports: list, arms: list) -> None:
    """Publish a stretch's reports, then queue its re-arms; empty both.
    A bus that raises (a malformed subject, a raising delivery model or
    injector) still gets the stretch re-armed: its chains keep their
    grid, and nothing is handed on twice."""
    try:
        if reports:
            bus.publish_reports(reports)
    finally:
        reports.clear()
        sim.schedule_items(period, Gauge._tick, 2, arms)
        arms.clear()


class WindowedMeanGauge(Gauge):
    """Sliding-window mean of the reported values (latency, load, backlog).

    A batched probe flush is one ``add_many`` call on the window.  The two
    message shapes timestamp differently: a per-sample message is stamped
    with its delivery time, a batch carries its samples' capture times.
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
    ):
        super().__init__(sim, probe_bus, gauge_bus, kind, target, period=period)
        self.window = SlidingWindow(horizon)

    def _consume(self, message: Message) -> None:
        self.window.add(self.sim.now, float(message["value"]))

    def _consume_batch(self, times, values) -> None:
        self.window.add_many(times, values)

    def _value(self) -> Optional[float]:
        return self.window.mean(self.sim.now)

    def _clear(self) -> None:
        self.window.clear()


class EwmaGauge(Gauge):
    """Exponentially-weighted mean of the reported values (utilization)."""

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
        self._ewma.add_many(times, values)

    def _value(self) -> Optional[float]:
        return self._ewma.value

    def _clear(self) -> None:
        self._ewma = EWMA(self.tau)


class LatestValueGauge(Gauge):
    """Most recent reported value, no smoothing (bandwidth, flags, age)."""

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
