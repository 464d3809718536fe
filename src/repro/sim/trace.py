"""Structured run traces.

Every layer appends :class:`TraceRecord` entries (repair started/finished,
server activated, client moved, constraint violated...).  The experiment
harness mines the trace for the paper's qualitative claims: repair
durations, activation times of the spare servers, and client-move
oscillation during the stress phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["TraceRecord", "Trace"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped occurrence.

    ``category`` is a dotted topic such as ``"repair.start"`` or
    ``"runtime.server.activate"``; ``data`` carries free-form details.
    """

    time: float
    category: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in sorted(self.data.items()))
        return f"[{self.time:10.3f}] {self.category:<28} {details}".rstrip()


class Trace:
    """Append-only record list with category filtering and subscriptions."""

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def emit(self, time: float, category: str, **data: Any) -> TraceRecord:
        rec = TraceRecord(time=time, category=category, data=data)
        self._records.append(rec)
        for listener in self._listeners:
            listener(rec)
        return rec

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke ``listener`` synchronously on every future record."""
        self._listeners.append(listener)

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        return list(self._records)

    def select(
        self,
        prefix: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[TraceRecord]:
        """Records whose category starts with ``prefix`` within [start, end]."""
        out = []
        for r in self._records:
            if not r.category.startswith(prefix):
                continue
            if start is not None and r.time < start:
                continue
            if end is not None and r.time > end:
                continue
            out.append(r)
        return out

    def dump(self, prefix: str = "") -> str:
        return "\n".join(str(r) for r in self.select(prefix))
