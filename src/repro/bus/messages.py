"""Bus message type."""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Dict, List, Optional

__all__ = ["Message", "subject_segments"]

_new = tuple.__new__


def subject_segments(subject: str) -> List[str]:
    """Split a dotted subject into its segments, rejecting a malformed one."""
    if not subject:
        raise ValueError("message subject must be non-empty")
    segments = subject.split(".")
    if "" in segments:
        raise ValueError(f"malformed subject {subject!r} (empty segment)")
    return segments


class Message(namedtuple("Message", ("subject", "attributes", "time", "sender"))):
    """An immutable notification.

    ``subject`` is a dotted hierarchy (``"probe.latency.C3"``); observers
    subscribe with wildcard patterns.  ``attributes`` carries the payload
    (Siena models notifications as attribute sets; we keep a dict).
    ``time`` is the publication time; delivery may happen later.

    A message is a tuple of those four fields, read through the C-level
    accessors :func:`~collections.namedtuple` builds, with its ``repr``
    and pickling; ``message[key]`` reads an *attribute*, never a tuple
    position.
    """

    __slots__ = ()

    def __new__(
        cls,
        subject: str,
        attributes: Optional[Dict[str, Any]] = None,
        time: float = 0.0,
        sender: str = "",
    ) -> "Message":
        subject_segments(subject)
        if attributes is None:
            attributes = {}
        return _new(cls, (subject, attributes, time, sender))

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    def with_time(self, time: float) -> "Message":
        """Copy with a new publication timestamp."""
        return _new(Message, (self.subject, dict(self.attributes), time, self.sender))

