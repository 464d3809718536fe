"""What the bus replaced: the linear subscription scan, and the
per-message dispatch.

``EventBus._dispatch`` used to carry the scan as a second branch
(``EventBus(indexed=False)``); it lives here now, behind
:class:`~repro.bus.index.SubjectTrie`'s ``add_validated`` / ``remove`` /
``match`` surface, so a test installs it on a second bus and compares
deliveries, order and statistics with the trie's.

``EventBus._dispatch`` itself — route, fault-check and schedule one
message, each delivery its own kernel item — was the probes' door
while the gauge reports went through a second, flat one.  Both gave way
to :func:`repro.bus.bus.queue_messages`.  :func:`per_message_dispatch`
keeps the old loop verbatim (a ``FixedDelay`` answers with its
``seconds``, as its ``delay`` method did, and the kernel item is spelled
with the kernel's one run door), and :func:`per_message_buses` installs
it as the three publish methods of both bus classes for the length of a
``with`` block, so a test plays the same traffic through either door.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List

from repro.bus import EventBus, subject_matches
from repro.bus.bus import FixedDelay, _deliver
from repro.bus.messages import Message, subject_segments
from repro.bus.sharding import ShardedEventBus

__all__ = ["LinearIndex", "linear_bus", "per_message_buses", "per_message_dispatch"]

_new = tuple.__new__


class LinearIndex:
    """Every subscription, tested against every subject, in subscription
    order; no memo."""

    def __init__(self) -> None:
        self._subs: Dict[str, object] = {}

    def add_validated(self, sub) -> None:
        self._subs[sub.sid] = sub

    def remove(self, sub) -> None:
        self._subs.pop(sub.sid, None)

    def match(self, subject: str) -> List[object]:
        subject_segments(subject)  # ValueError for a malformed subject
        return [
            sub for sub in self._subs.values() if subject_matches(sub.pattern, subject)
        ]


def linear_bus(*args, **kwargs) -> EventBus:
    """An :class:`EventBus` that matches by linear scan."""
    bus = EventBus(*args, **kwargs)
    bus._index = LinearIndex()
    return bus


def _model_delay(model, msg):
    """What ``model.delay(msg)`` answered when ``FixedDelay`` had one."""
    if isinstance(model, FixedDelay):
        return model.seconds
    return model.delay(msg)


def per_message_dispatch(self, msg: Message) -> int:
    """Route, fault-check and schedule one bus-owned
    message; ``ValueError`` (nothing published) for a malformed subject.

    The index returns candidates in subscription order, and handlers
    never run synchronously, so the candidate set is a snapshot.
    """
    candidates = self._index.match(msg.subject)
    self.published += 1
    matched = 0
    inject = self.fault_injector
    for sub in candidates:
        if not sub.active:
            continue
        matched += 1
        if inject is not None and inject(sub, msg):
            self.dead_letters += 1
            self.dead_letters_by_sid[sub.sid] = (
                self.dead_letters_by_sid.get(sub.sid, 0) + 1
            )
            continue
        delay = float(_model_delay(self.delivery, msg))
        if delay < 0:
            delay = 0.0
        self.sim.schedule_items(delay, _deliver, 4, (self, sub, msg, delay))
    return matched


def _publish(self, message):
    return per_message_dispatch(self, message.with_time(self.sim.now))


def _publish_subject(self, subject, sender="", **attributes):
    msg = _new(Message, (subject, attributes, self.sim.now, sender))
    return per_message_dispatch(self, msg)


def _publish_reports(self, reports):
    fields = iter(reports)
    matched = 0
    for subject, attributes, sender in zip(fields, fields, fields):
        msg = _new(Message, (subject, attributes, self.sim.now, sender))
        matched += per_message_dispatch(self, msg)
    return matched


def _child(facade, subject):
    return facade._routes.get(subject) or facade._route(subject)


def _sharded_publish(self, message):
    return _publish(_child(self, message.subject), message)


def _sharded_publish_subject(self, subject, sender="", **attributes):
    return _publish_subject(_child(self, subject), subject, sender, **attributes)


def _sharded_publish_reports(self, reports):
    fields = iter(reports)
    matched = 0
    for subject, attributes, sender in zip(fields, fields, fields):
        msg = _new(Message, (subject, attributes, self.sim.now, sender))
        matched += per_message_dispatch(_child(self, subject), msg)
    return matched


_DOORS = {
    EventBus: (_publish, _publish_subject, _publish_reports),
    ShardedEventBus: (
        _sharded_publish,
        _sharded_publish_subject,
        _sharded_publish_reports,
    ),
}


@contextmanager
def per_message_buses():
    """Publish through :func:`per_message_dispatch` inside the block, on
    every :class:`EventBus` and :class:`ShardedEventBus`."""
    names = ("publish", "publish_subject", "publish_reports")
    kept = {cls: [cls.__dict__[name] for name in names] for cls in _DOORS}
    for cls, doors in _DOORS.items():
        for name, door in zip(names, doors):
            setattr(cls, name, door)
    try:
        yield
    finally:
        for cls, doors in kept.items():
            for name, door in zip(names, doors):
                setattr(cls, name, door)
