"""The event bus proper.

Delivery semantics: ``publish`` never invokes handlers synchronously.
In the default (unbatched) configuration each matching subscription
receives the message after a delay chosen by the bus's
:class:`DeliveryModel` (default: a small fixed latency), as one item of
a kernel run (:meth:`~repro.sim.kernel.Simulator.schedule_run`): the
deliveries due at one instant, back to back, are one action, and each
(subscription, message) pair is four fields in it.  Because the
underlying simulator breaks ties in scheduling order, delivery is
deterministic.

The *batched* path (opt-in per bus or per subscription) replaces the
per-pair deliveries with per-subscriber queues: ``publish`` appends one
shared message reference to each matching subscriber's
:class:`~repro.bus.queues.SubscriberQueue`, and a single drain event
per busy period delivers everything pending in one handler burst.  A
:class:`~repro.bus.queues.QueuePolicy` bounds each queue (drop-oldest /
drop-newest / block-publisher backpressure); overflow and depth are
counted per subscriber and aggregated in :meth:`EventBus.stats`.

The delivery model is the hook for the paper's in-band-monitoring
effect: the experiment harness installs a model whose delay grows when
the network path carrying monitoring traffic is congested, and the A2
ablation swaps in a fixed-latency (QoS-prioritized) model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.bus.filters import AttributeFilter, validate_pattern
from repro.bus.index import SubjectTrie
from repro.bus.messages import Message, routed_message
from repro.bus.queues import QueuePolicy, SubscriberQueue
from repro.sim.kernel import Simulator
from repro.util.ids import IdGenerator

__all__ = [
    "DeliveryModel",
    "FixedDelay",
    "CallableDelay",
    "Subscription",
    "EventBus",
    "QueuePolicy",
]


class DeliveryModel:
    """Strategy returning the bus transit delay for a message."""

    def delay(self, message: Message) -> float:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class FixedDelay(DeliveryModel):
    """Constant transit delay (default 10 ms; a LAN-ish event bus)."""

    seconds: float = 0.010

    def delay(self, message: Message) -> float:
        return self.seconds


class CallableDelay(DeliveryModel):
    """Adapts a plain ``message -> seconds`` callable."""

    def __init__(self, fn: Callable[[Message], float]):
        self._fn = fn

    def delay(self, message: Message) -> float:
        return self._fn(message)


def _deliver(bus: "EventBus", sub: "Subscription", msg: Message, delay: float) -> None:
    """One unbatched delivery.  A module function, not a method, so every
    bus's same-instant deliveries — the child buses of a sharded bus
    alike — join one kernel run."""
    if not sub.active:
        return  # unsubscribed while in flight
    bus.delivered += 1
    # Transit accrues at delivery, not publish: the running mean is
    # never skewed by scheduled-but-undelivered messages, and
    # unsubscribe-cancelled deliveries contribute nothing.
    bus.total_transit += delay
    sub.handler(msg)


@dataclass
class Subscription:
    """A registered interest: subject pattern + optional attribute filter.

    ``seq`` is the bus-assigned subscription order; delivery order follows
    it regardless of how candidates were looked up.
    """

    sid: str
    pattern: str
    handler: Callable[[Message], None]
    attr_filter: Optional[AttributeFilter] = None
    active: bool = True
    seq: int = 0


class EventBus:
    """Wide-area event bus simulacrum.

    Statistics (published/delivered counts, cumulative transit time,
    batching/overflow counters) feed the monitoring-overhead reporting
    in the experiment harness.

    ``batched=True`` makes queued batch delivery the default for every
    subscription; individual ``subscribe`` calls may override either
    way.  ``queue_policy`` is the default policy for batched
    subscriptions (unbounded when omitted).
    """

    def __init__(
        self,
        sim: Simulator,
        delivery: Optional[DeliveryModel] = None,
        name: str = "bus",
        batched: bool = False,
        queue_policy: Optional[QueuePolicy] = None,
    ):
        self.sim = sim
        self.name = name
        self.delivery = delivery or FixedDelay()
        self.batched = batched
        self.queue_policy = queue_policy or QueuePolicy()
        self._subs: Dict[str, Subscription] = {}
        self._queues: Dict[str, SubscriberQueue] = {}
        self._index = SubjectTrie()
        self._ids = IdGenerator()
        self._seq = 0
        self.published = 0
        self.delivered = 0
        self.total_transit = 0.0
        # batched-path aggregates (0 on a fully unbatched bus)
        self.dropped = 0
        self.stalled = 0
        self.batches = 0
        #: fault-plane hook: ``(sub, msg) -> bool``; True drops the
        #: delivery before scheduling/enqueueing and counts a dead letter
        self.fault_injector: Optional[Callable[[Subscription, Message], bool]] = None
        self.dead_letters = 0
        self.dead_letters_by_sid: Dict[str, int] = {}

    # -- subscription management -------------------------------------------
    def subscribe(
        self,
        pattern: str,
        handler: Callable[[Message], None],
        attr_filter: Optional[AttributeFilter] = None,
        batched: Optional[bool] = None,
        queue_policy: Optional[QueuePolicy] = None,
    ) -> Subscription:
        """Register ``handler`` for messages matching ``pattern`` (+filter).

        ``batched``/``queue_policy`` override the bus defaults for this
        subscription; passing a ``queue_policy`` alone implies batching.
        """
        validate_pattern(pattern)
        self._seq += 1
        sub = Subscription(
            self._ids.next("sub"), pattern, handler, attr_filter, seq=self._seq
        )
        self._subs[sub.sid] = sub
        if batched is None:
            batched = self.batched or queue_policy is not None
        if batched:
            self._queues[sub.sid] = SubscriberQueue(
                sub, queue_policy or self.queue_policy
            )
        self._index.add_validated(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Deactivate and forget a subscription (idempotent).

        Batched subscriptions discard whatever is still queued or parked
        (never delivered, never counted as transit) — the queued
        analogue of the unbatched unsubscribe-while-in-flight rule.
        """
        if self._subs.get(sub.sid) is not sub:
            return  # already forgotten, or another bus's subscription
        sub.active = False
        del self._subs[sub.sid]
        self._index.remove(sub)
        sq = self._queues.pop(sub.sid, None)
        if sq is not None:
            sq.queue.clear()
            sq.parked.clear()

    @property
    def subscriptions(self) -> List[Subscription]:
        return list(self._subs.values())

    # -- publication ----------------------------------------------------------
    def publish(self, message: Message) -> int:
        """Route ``message`` to matching subscribers; returns match count.

        The caller keeps its message: what is delivered is a copy whose
        timestamp is normalized to the current simulation time.
        """
        return self._dispatch(message.with_time(self.sim.now))

    def publish_subject(self, subject: str, sender: str = "", **attributes) -> int:
        """Build and publish a message in one call, without the copy.

        The message is stamped ``sim.now`` at construction and nobody
        else holds it or its attribute dict, so it is routed as is — and
        built unchecked, because the route lookup it goes to next is
        what rejects a malformed subject.
        """
        return self._dispatch(routed_message(subject, attributes, self.sim.now, sender))

    def _dispatch(self, msg: Message) -> int:
        """Route, filter, fault-check and enqueue/schedule one bus-owned
        message; ``ValueError`` (nothing published) for a malformed subject.

        The index returns candidates in subscription order, and handlers
        never run synchronously, so the candidate set is a snapshot.
        """
        candidates = self._index.match(msg.subject)
        self.published += 1
        matched = 0
        attributes = msg.attributes
        queues = self._queues
        inject = self.fault_injector
        for sub in candidates:
            if not sub.active:
                continue
            attr_filter = sub.attr_filter
            if attr_filter is not None and not attr_filter.matches(attributes):
                continue
            matched += 1
            if inject is not None and inject(sub, msg):
                self.dead_letters += 1
                self.dead_letters_by_sid[sub.sid] = (
                    self.dead_letters_by_sid.get(sub.sid, 0) + 1
                )
                continue
            if queues:
                sq = queues.get(sub.sid)
                if sq is not None:
                    self._enqueue(sq, msg)
                    continue
            delay = float(self.delivery.delay(msg))
            if delay < 0:
                delay = 0.0
            self.sim.schedule_run(delay, _deliver, self, sub, msg, delay)
        return matched

    # -- batched delivery ------------------------------------------------------
    def _enqueue(self, sq: SubscriberQueue, msg: Message) -> None:
        policy = sq.policy
        queue = sq.queue
        sq.enqueued += 1
        if policy.bounded and len(queue) >= policy.capacity:
            mode = policy.mode
            if mode == "drop-oldest":
                queue.popleft()
                queue.append(msg)
                sq.dropped += 1
                self.dropped += 1
            elif mode == "drop-newest":
                sq.dropped += 1
                self.dropped += 1
            else:  # block: park publisher-side until the drain frees room
                sq.parked.append(msg)
                sq.stalled += 1
                self.stalled += 1
        else:
            queue.append(msg)
        sq.note_depth()
        if queue and not sq.drain_scheduled:
            self._schedule_drain(sq, queue[0])

    def _schedule_drain(self, sq: SubscriberQueue, head: Message) -> None:
        sq.drain_scheduled = True
        delay = float(self.delivery.delay(head))
        if delay < 0:
            delay = 0.0
        self.sim.schedule(delay, self._drain, sq)

    def _drain(self, sq: SubscriberQueue) -> None:
        """Deliver one busy period's batch in a single handler burst."""
        sq.drain_scheduled = False
        batch = sq.queue
        sq.queue = deque()
        # The burst frees capacity: admit parked (block-mode) overflow
        # FIFO into the fresh queue and start its own drain period.
        # Messages the handlers publish during the burst land behind it.
        capacity = sq.policy.capacity
        parked = sq.parked
        while parked and (not capacity or len(sq.queue) < capacity):
            sq.queue.append(parked.popleft())
        if sq.queue:
            self._schedule_drain(sq, sq.queue[0])
        if not batch:
            return
        sq.batches += 1
        self.batches += 1
        if len(batch) > sq.max_batch:
            sq.max_batch = len(batch)
        sub = sq.sub
        now = self.sim.now
        handler = sub.handler
        for msg in batch:
            if not sub.active:
                break  # unsubscribed mid-burst: discard the remainder
            self.delivered += 1
            sq.delivered += 1
            self.total_transit += now - msg.time
            handler(msg)

    # -- reporting -------------------------------------------------------------
    @property
    def mean_transit(self) -> float:
        return self.total_transit / self.delivered if self.delivered else 0.0

    def stats(self) -> Dict[str, float]:
        """Aggregate counters; batching fields appear once queues exist."""
        data: Dict[str, float] = {
            "published": self.published,
            "delivered": self.delivered,
            "mean_transit": self.mean_transit,
        }
        if self.fault_injector is not None or self.dead_letters:
            data["dead_letters"] = self.dead_letters
        if self._queues or self.batches or self.dropped or self.stalled:
            queues = self._queues.values()
            data.update(
                {
                    "batched_subscriptions": len(self._queues),
                    "batches": self.batches,
                    "dropped": self.dropped,
                    "stalled": self.stalled,
                    "queued_now": sum(sq.depth for sq in queues),
                    "peak_depth": max((sq.peak_depth for sq in queues), default=0),
                    "max_batch": max((sq.max_batch for sq in queues), default=0),
                }
            )
        return data

    def queue_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-subscriber depth gauges and counters, keyed by sid."""
        return {sid: sq.snapshot() for sid, sq in self._queues.items()}
