"""Bus message type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Message"]


@dataclass(frozen=True)
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
        if not self.subject:
            raise ValueError("message subject must be non-empty")
        if "" in self.subject.split("."):
            raise ValueError(f"malformed subject {self.subject!r} (empty segment)")

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    def with_time(self, time: float) -> "Message":
        """Copy with a new publication timestamp."""
        return Message(self.subject, dict(self.attributes), time, self.sender)
