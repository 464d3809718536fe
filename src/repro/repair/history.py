"""Repair history: records and derived statistics.

The experiment harness mines this for the paper's §5 observations: the
~30 s mean repair duration, when spare servers were activated, and the
client-move oscillation during the stress phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.repair.context import RuntimeIntent
from repro.repair.footprint import Footprint

__all__ = ["RepairRecord", "RepairHistory"]


@dataclass
class RepairRecord:
    """One repair attempt, committed or aborted."""

    started: float
    strategy: str
    invariant: str = ""
    scope: Optional[str] = None
    ended: Optional[float] = None
    committed: bool = False
    tactic_applied: Optional[str] = None
    tactics_tried: List[str] = field(default_factory=list)
    abort_reason: Optional[str] = None
    intents: List[RuntimeIntent] = field(default_factory=list)
    #: elements the repair wrote (serial policy: the transaction's
    #: touched set; disjoint policy: additionally unioned with the
    #: triggering invariant's read scope, as used for conflict checks)
    footprint: Optional[Footprint] = None
    #: (tactic name, touched elements) per applied tactic
    tactic_footprints: List[Tuple[str, Footprint]] = field(default_factory=list)
    #: 1-based attempt number under the engine's RetryPolicy (1 = first try)
    attempt: int = 1
    #: backoff delay scheduled after this attempt failed (None = no retry)
    retry_backoff: Optional[float] = None
    #: True when the attempt was aborted by the repair timeout deadline
    timed_out: bool = False

    @property
    def duration(self) -> Optional[float]:
        if self.ended is None:
            return None
        return self.ended - self.started

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready view (the ``/repair-history`` endpoint's shape).

        Footprints are summarized as sorted element names; intents as
        ``{op, args}``.  Every value is strict-JSON serializable.
        """
        return {
            "started": self.started,
            "ended": self.ended,
            "duration": self.duration,
            "strategy": self.strategy,
            "invariant": self.invariant,
            "scope": self.scope,
            "committed": self.committed,
            "tactic_applied": self.tactic_applied,
            "tactics_tried": list(self.tactics_tried),
            "abort_reason": self.abort_reason,
            "intents": [
                {"op": intent.op, "args": dict(intent.args)}
                for intent in self.intents
            ],
            "footprint": (
                sorted(self.footprint.elements)
                if self.footprint is not None
                else None
            ),
            "attempt": self.attempt,
            "retry_backoff": self.retry_backoff,
            "timed_out": self.timed_out,
        }

    def __str__(self) -> str:
        state = (
            f"committed via {self.tactic_applied}"
            if self.committed else f"aborted ({self.abort_reason})"
        )
        dur = f" in {self.duration:.1f}s" if self.duration is not None else ""
        return f"[{self.started:8.1f}s] {self.strategy} @ {self.scope}: {state}{dur}"


class RepairHistory:
    """Append-only record list with summary statistics.

    ``capacity`` bounds memory for long-running/online runs: once full,
    appending evicts the oldest record (FIFO) and bumps ``evicted``.
    Default is unbounded, which keeps existing fingerprints untouched.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("history capacity must be >= 1 (or None)")
        self._records: List[RepairRecord] = []
        self.capacity = capacity
        self.evicted = 0

    def append(self, record: RepairRecord) -> None:
        self._records.append(record)
        if self.capacity is not None and len(self._records) > self.capacity:
            overflow = len(self._records) - self.capacity
            del self._records[:overflow]
            self.evicted += overflow

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> List[RepairRecord]:
        return list(self._records)

    @property
    def committed(self) -> List[RepairRecord]:
        return [r for r in self._records if r.committed]

    @property
    def aborted(self) -> List[RepairRecord]:
        return [r for r in self._records if not r.committed]

    def mean_duration(self, committed_only: bool = True) -> float:
        pool = self.committed if committed_only else self._records
        durations = [r.duration for r in pool if r.duration is not None]
        return sum(durations) / len(durations) if durations else 0.0

    def tactic_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.committed:
            if r.tactic_applied:
                counts[r.tactic_applied] = counts.get(r.tactic_applied, 0) + 1
        return counts

    # -- intent mining -----------------------------------------------------------
    def intents_of(self, op: str) -> List[Tuple[float, RuntimeIntent]]:
        """(commit time, intent) pairs across committed repairs."""
        out: List[Tuple[float, RuntimeIntent]] = []
        for r in self.committed:
            for intent in r.intents:
                if intent.op == op:
                    out.append((r.started, intent))
        return out

    def client_moves(self) -> List[Tuple[float, str, str, str]]:
        """(time, client, from_group, to_group) across the run."""
        return [
            (t, i.args.get("client", "?"), i.args.get("frm", "?"),
             i.args.get("to", "?"))
            for t, i in self.intents_of("moveClient")
        ]

    def server_activations(self) -> List[Tuple[float, str, str]]:
        """(time, server, group) for every addServer-style recruitment."""
        return [
            (t, i.args.get("server", "?"), i.args.get("group", "?"))
            for t, i in self.intents_of("addServer")
        ]

    def oscillation_count(self, client: str) -> int:
        """Back-and-forth moves: returns to a group left earlier."""
        seen: List[str] = []
        count = 0
        for _, cli, frm, to in self.client_moves():
            if cli != client:
                continue
            if to in seen:
                count += 1
            seen.append(frm)
        return count
