"""The event bus proper.

Delivery semantics: ``publish`` never invokes handlers synchronously.
Each matching subscription receives the message after a delay chosen
by the bus's :class:`DeliveryModel` (default: a small fixed latency),
as one item of a kernel run
(:meth:`~repro.sim.kernel.Simulator.schedule_run`): the deliveries due
at one instant, back to back, are one action, and each
(subscription, message) pair is four fields in it.  Because the
underlying simulator breaks ties in scheduling order, delivery is
deterministic.

The delivery model is the hook for the paper's in-band-monitoring
effect: the experiment harness installs a model whose delay grows when
the network path carrying monitoring traffic is congested, and the A2
ablation swaps in a fixed-latency (QoS-prioritized) model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.bus.filters import validate_pattern
from repro.bus.index import SubjectTrie
from repro.bus.messages import Message, routed_message
from repro.sim.kernel import Simulator
from repro.util.ids import IdGenerator

__all__ = [
    "DeliveryModel",
    "FixedDelay",
    "CallableDelay",
    "Subscription",
    "EventBus",
]


class DeliveryModel:
    """Strategy returning the bus transit delay for a message: a subclass
    defines ``delay(message) -> seconds``."""


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
    """One delivery.  A module function, not a method, so every
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
    """A registered interest: a subject pattern and its handler.

    ``seq`` is the bus-assigned subscription order; delivery order follows
    it regardless of how candidates were looked up.
    """

    sid: str
    pattern: str
    handler: Callable[[Message], None]
    active: bool = True
    seq: int = 0


class EventBus:
    """Wide-area event bus simulacrum.

    Statistics (published/delivered counts, cumulative transit time,
    dead letters) feed the monitoring-overhead reporting in the
    experiment harness.
    """

    def __init__(
        self,
        sim: Simulator,
        delivery: Optional[DeliveryModel] = None,
        name: str = "bus",
    ):
        self.sim = sim
        self.name = name
        self.delivery = delivery or FixedDelay()
        self._subs: Dict[str, Subscription] = {}
        self._index = SubjectTrie()
        self._ids = IdGenerator()
        self._seq = 0
        self.published = 0
        self.delivered = 0
        self.total_transit = 0.0
        #: fault-plane hook: ``(sub, msg) -> bool``; True drops the
        #: delivery before scheduling and counts a dead letter
        self.fault_injector: Optional[Callable[[Subscription, Message], bool]] = None
        self.dead_letters = 0
        self.dead_letters_by_sid: Dict[str, int] = {}

    # -- subscription management -------------------------------------------
    def subscribe(
        self, pattern: str, handler: Callable[[Message], None]
    ) -> Subscription:
        """Register ``handler`` for messages matching ``pattern``."""
        validate_pattern(pattern)
        self._seq += 1
        sub = Subscription(self._ids.next("sub"), pattern, handler, seq=self._seq)
        self._subs[sub.sid] = sub
        self._index.add_validated(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Deactivate and forget a subscription (idempotent); deliveries
        still in flight to it are dropped, never counted as transit."""
        if self._subs.get(sub.sid) is not sub:
            return  # already forgotten, or another bus's subscription
        sub.active = False
        del self._subs[sub.sid]
        self._index.remove(sub)

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
            delay = float(self.delivery.delay(msg))
            if delay < 0:
                delay = 0.0
            self.sim.schedule_run(delay, _deliver, self, sub, msg, delay)
        return matched

    # -- reporting -------------------------------------------------------------
    @property
    def mean_transit(self) -> float:
        return self.total_transit / self.delivered if self.delivered else 0.0

    def stats(self) -> Dict[str, float]:
        """Aggregate counters; ``dead_letters`` appears once faults are wired."""
        data: Dict[str, float] = {
            "published": self.published,
            "delivered": self.delivered,
            "mean_transit": self.mean_transit,
        }
        if self.fault_injector is not None or self.dead_letters:
            data["dead_letters"] = self.dead_letters
        return data
