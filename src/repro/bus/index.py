"""Subject-segment trie index for the event bus publish path.

The naive publish path tests every subscription's pattern against the
message subject — O(subscriptions) per publish, which dominates once the
runtime multiplies bus traffic across scenarios.  This index stores each
pattern as a path through a trie keyed on subject segments, with separate
branches for exact segments, ``*`` (exactly one segment), and ``>`` (one
or more trailing segments).  Matching walks the trie once per subject, so
cost is proportional to subject depth times the number of wildcard
branches along the way, not to the total number of subscriptions.

Matches are returned in subscription order (the order ``subscribe`` was
called), which is exactly the iteration order of the linear scan this
index replaced (``tests/reference/bus.py``) — delivery order and
statistics are pinned to that scan bit for bit.

A plane publishes the same few thousand literal subjects forever, so
``match`` memoises ``subject -> candidates``: the steady state is one
dict hit per publish.  Any ``add`` or ``remove`` clears the memo, and it
is cleared rather than grown past :data:`ROUTE_MEMO_CAP` subjects, so a
service fed ever-new subjects stays bounded.  A subject is validated
when its route is built, so the bus takes a memo hit as proof that the
subject is well-formed and does not check it a second time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bus.filters import validate_pattern
from repro.bus.messages import subject_segments

__all__ = ["SubjectTrie"]

#: most subjects one trie remembers the route of (about 200 bytes each)
ROUTE_MEMO_CAP = 32768


class _Node:
    """One trie node: exact-segment children plus wildcard branches."""

    __slots__ = ("children", "star", "terminal", "tail")

    def __init__(self) -> None:
        self.children: Dict[str, _Node] = {}
        self.star: Optional[_Node] = None  # "*" branch
        self.terminal: Dict[str, object] = {}  # sid -> sub; patterns ending here
        self.tail: Dict[str, object] = {}  # sid -> sub; ">" patterns

    def is_empty(self) -> bool:
        return not (self.children or self.star or self.terminal or self.tail)


class SubjectTrie:
    """Pattern index mapping subjects to the subscriptions they match."""

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0
        self._memo: Dict[str, Tuple[object, ...]] = {}

    def __len__(self) -> int:
        return self._size

    # -- maintenance -------------------------------------------------------
    def add(self, sub) -> None:
        """Index ``sub``.

        Entries must have ``sid``, ``pattern``, and an orderable ``seq``
        (the subscription sequence number :meth:`match` sorts by).
        """
        validate_pattern(sub.pattern)
        self.add_validated(sub)

    def add_validated(self, sub) -> None:
        """:meth:`add` for a caller that validated ``sub.pattern`` itself
        (``EventBus.subscribe`` does, before it registers anything)."""
        segments = sub.pattern.split(".")
        self._memo.clear()
        node = self._root
        for segment in segments:
            if segment == ">":
                node.tail[sub.sid] = sub
                self._size += 1
                return
            if segment == "*":
                if node.star is None:
                    node.star = _Node()
                node = node.star
            else:
                node = node.children.setdefault(segment, _Node())
        node.terminal[sub.sid] = sub
        self._size += 1

    def remove(self, sub) -> None:
        """Drop ``sub`` from the index (no-op if absent), pruning dead nodes."""
        self._memo.clear()
        self._remove(self._root, sub.pattern.split("."), 0, sub.sid)

    def _remove(self, node: _Node, segments: List[str], i: int, sid: str) -> bool:
        """Recursive removal; returns True when ``node`` became empty."""
        if i < len(segments) and segments[i] == ">":
            if node.tail.pop(sid, None) is not None:
                self._size -= 1
            return node.is_empty()
        if i == len(segments):
            if node.terminal.pop(sid, None) is not None:
                self._size -= 1
            return node.is_empty()
        segment = segments[i]
        if segment == "*":
            child = node.star
            if child is not None and self._remove(child, segments, i + 1, sid):
                node.star = None
        else:
            child = node.children.get(segment)
            if child is not None and self._remove(child, segments, i + 1, sid):
                del node.children[segment]
        return node.is_empty()

    # -- lookup ------------------------------------------------------------
    def match(self, subject: str) -> Tuple[object, ...]:
        """All indexed subscriptions whose pattern matches ``subject``.

        Returned in subscription order (ascending ``seq``).  A malformed
        subject raises the :class:`ValueError` a ``Message`` would and is
        never memoised, so a memo hit vouches for a well-formed subject.
        """
        memo = self._memo
        hit = memo.get(subject)
        if hit is not None:
            return hit
        out: List[object] = []
        self._collect(self._root, subject_segments(subject), 0, out)
        if len(out) > 1:
            out.sort(key=lambda s: s.seq)
        if len(memo) >= ROUTE_MEMO_CAP:
            memo.clear()
        hit = memo[subject] = tuple(out)
        return hit

    def _collect(
        self, node: _Node, segments: List[str], i: int, out: List[object]
    ) -> None:
        if node.tail and i < len(segments):
            out.extend(node.tail.values())
        if i == len(segments):
            out.extend(node.terminal.values())
            return
        child = node.children.get(segments[i])
        if child is not None:
            self._collect(child, segments, i + 1, out)
        if node.star is not None:
            self._collect(node.star, segments, i + 1, out)
