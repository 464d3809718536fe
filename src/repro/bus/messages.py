"""Bus message type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["Message", "subject_segments"]


def subject_segments(subject: str) -> List[str]:
    """Split a dotted subject into its segments, rejecting a malformed one."""
    if not subject:
        raise ValueError("message subject must be non-empty")
    segments = subject.split(".")
    if "" in segments:
        raise ValueError(f"malformed subject {subject!r} (empty segment)")
    return segments


@dataclass(frozen=True, slots=True)
class Message:
    """An immutable notification.

    ``subject`` is a dotted hierarchy (``"probe.latency.C3"``); observers
    subscribe with wildcard patterns.  ``attributes`` carries the payload
    (Siena models notifications as attribute sets; we keep a dict).
    ``time`` is the publication time; delivery may happen later.
    """

    subject: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    time: float = 0.0
    sender: str = ""

    def __post_init__(self) -> None:
        subject_segments(self.subject)

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    def with_time(self, time: float) -> "Message":
        """Copy with a new publication timestamp."""
        return Message(self.subject, dict(self.attributes), time, self.sender)


_new = object.__new__
#: the slots' member descriptors: a store through one skips the frozen
#: ``__setattr__`` and the attribute lookup ``object.__setattr__`` makes
_set_subject = Message.subject.__set__
_set_attributes = Message.attributes.__set__
_set_time = Message.time.__set__
_set_sender = Message.sender.__set__


def routed_message(
    subject: str, attributes: Dict[str, Any], time: float, sender: str
) -> Message:
    """A :class:`Message` whose subject the caller already validated.

    For the bus's publish door, whose next step is the route lookup that
    rejects a malformed subject: the four slots are filled as the frozen
    ``__init__`` fills them, minus its second validation pass.  The
    result is an ordinary message — same ``==``, ``repr``, ``with_time``
    and immutability.  (A message has no ``__dict__``: a dict object per
    message is one more for the cyclic collector to count and track.)
    """
    msg = _new(Message)
    _set_subject(msg, subject)
    _set_attributes(msg, attributes)
    _set_time(msg, time)
    _set_sender(msg, sender)
    return msg
