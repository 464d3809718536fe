"""Discrete-event simulation kernel (substrate S1).

A small, deterministic, generator-based kernel in the style of SimPy:
processes are Python generators that ``yield`` waitable :class:`Event`
objects (timeouts, store gets, other processes).  Events scheduled for the
same instant fire in scheduling order, so runs are fully reproducible: the
kernel's agenda is a heap of distinct instants with one FIFO of actions per
instant, which keeps that order by construction and makes the cost of a
crowded instant one heap entry.
"""

from repro.sim.kernel import Simulator, Event, Timeout
from repro.sim.process import Process, Interrupted
from repro.sim.primitives import Store
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupted",
    "Store",
    "Trace",
    "TraceRecord",
]
