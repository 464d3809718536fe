"""The linear subscription scan the subject trie replaced.

``EventBus._dispatch`` used to carry this scan as a second branch
(``EventBus(indexed=False)``); it lives here now, behind
:class:`~repro.bus.index.SubjectTrie`'s ``add_validated`` / ``remove`` /
``match`` surface, so a test installs it on a second bus and compares
deliveries, order and statistics with the trie's.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bus import EventBus, subject_matches
from repro.bus.messages import subject_segments

__all__ = ["LinearIndex", "linear_bus"]


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
