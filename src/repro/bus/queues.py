"""Per-subscriber delivery queues for the batched bus path.

The unbatched bus schedules one delivery per (subscription, message)
pair — an item of a kernel run, so a publish fanning out to N
subscribers appends N items and each handler runs in its own call.
The batched path replaces that with a :class:`SubscriberQueue` per
subscription: ``publish`` appends one *shared* message reference per
matching subscriber (zero copies — :class:`~repro.bus.messages.Message`
is frozen), and each subscriber drains its queue in a single scheduled
drain event per busy period, delivering every pending message in one
handler burst.

A :class:`QueuePolicy` bounds the queue and decides what overflow does:

========== ============================================================
mode        behaviour when the queue holds ``capacity`` messages
========== ============================================================
unbounded   never full (``capacity`` ignored)
drop-oldest evict the oldest queued message, then enqueue the new one
drop-newest discard the incoming message
block       park the message publisher-side (never lost); parked
            messages are admitted FIFO as the drain frees capacity —
            the backpressure shape of a blocking hand-off, expressed
            in added transit time instead of a blocked process
========== ============================================================

Every queue counts enqueues, deliveries, drops, stalls (block-mode
parks), bursts, and peak depth; the bus aggregates them in
:meth:`~repro.bus.bus.EventBus.stats` and exposes the per-subscriber
view through :meth:`~repro.bus.bus.EventBus.queue_stats`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus.bus import Subscription
    from repro.bus.messages import Message

__all__ = ["QUEUE_MODES", "QueuePolicy", "SubscriberQueue"]

#: the recognized ``QueuePolicy.mode`` values
QUEUE_MODES = ("unbounded", "drop-oldest", "drop-newest", "block")


@dataclass(frozen=True)
class QueuePolicy:
    """How one subscriber's delivery queue bounds itself.

    ``capacity`` is the maximum queued (undelivered) message count for
    the bounded modes; it must be positive for them and is ignored (by
    convention 0) for ``unbounded``.
    """

    mode: str = "unbounded"
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.mode not in QUEUE_MODES:
            raise ValueError(
                f"unknown queue mode {self.mode!r}; expected one of "
                f"{', '.join(QUEUE_MODES)}"
            )
        if self.mode != "unbounded" and self.capacity < 1:
            raise ValueError(
                f"queue mode {self.mode!r} needs a positive capacity, "
                f"got {self.capacity}"
            )

    @property
    def bounded(self) -> bool:
        return self.mode != "unbounded"


class SubscriberQueue:
    """One subscription's pending deliveries plus its counters.

    ``queue`` holds admitted messages awaiting the next drain burst;
    ``parked`` holds block-mode overflow waiting for capacity.  A drain
    event is outstanding iff ``drain_scheduled`` — the bus maintains the
    invariant that the queue is non-empty whenever a drain is scheduled
    and no drain is scheduled for an empty queue.
    """

    __slots__ = (
        "sub",
        "policy",
        "queue",
        "parked",
        "drain_scheduled",
        "enqueued",
        "delivered",
        "dropped",
        "stalled",
        "batches",
        "max_batch",
        "peak_depth",
    )

    def __init__(self, sub: "Subscription", policy: QueuePolicy):
        self.sub = sub
        self.policy = policy
        self.queue: Deque["Message"] = deque()
        self.parked: Deque["Message"] = deque()
        self.drain_scheduled = False
        self.enqueued = 0
        self.delivered = 0
        self.dropped = 0
        self.stalled = 0
        self.batches = 0
        self.max_batch = 0
        self.peak_depth = 0

    @property
    def depth(self) -> int:
        """Undelivered messages held for this subscriber (incl. parked)."""
        return len(self.queue) + len(self.parked)

    def note_depth(self) -> None:
        depth = self.depth
        if depth > self.peak_depth:
            self.peak_depth = depth

    def snapshot(self) -> Dict[str, Any]:
        """The per-subscriber stats row (``EventBus.queue_stats``)."""
        return {
            "pattern": self.sub.pattern,
            "mode": self.policy.mode,
            "capacity": self.policy.capacity,
            "depth": self.depth,
            "peak_depth": self.peak_depth,
            "enqueued": self.enqueued,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "stalled": self.stalled,
            "batches": self.batches,
            "max_batch": self.max_batch,
        }
