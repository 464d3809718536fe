"""The per-item gauge tick the whole-run tick replaced.

:meth:`repro.monitoring.gauges.Gauge._tick` is handed every gauge due at
one instant in one call (the kernel plays the run whole) and hands the
instant's reports to the gauge bus, and its re-arms to the kernel, in
one call each.  What it replaced played each gauge's tick as its own
item: a ``publish_subject`` per report and a one-item re-arm.  That
method is kept here verbatim, its re-arm spelled with the kernel's one
run door (``schedule_items``), as the oracle of the whole-run play.

:func:`per_item_ticks` installs it as ``Gauge._tick`` for the length of
a ``with`` block: ``Gauge._arm`` and every re-arm name ``Gauge._tick``,
so each chain started or re-armed inside ticks per item, and the kernel,
which takes only functions marked whole a run at a time, plays them one
item at a time.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.monitoring.gauges import Gauge

__all__ = ["per_item_tick", "per_item_ticks"]


def per_item_tick(self, ticker: object) -> None:
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
    self.sim.schedule_items(self.period, Gauge._tick, 2, (self, ticker))


@contextmanager
def per_item_ticks():
    """Tick every gauge per item inside the block."""
    whole = Gauge.__dict__["_tick"]
    Gauge._tick = per_item_tick
    try:
        yield
    finally:
        Gauge._tick = whole
