"""The event bus proper.

Delivery semantics: a publish never invokes handlers synchronously.
Each matching subscription receives the message after a delay chosen
by the bus's :class:`DeliveryModel` (default: a small fixed latency),
as one item of a kernel run
(:meth:`~repro.sim.kernel.Simulator.schedule_items`): the deliveries
due at one instant, back to back, are one action, and each
(subscription, message) pair is four fields in it.  The kernel hands
that run to :func:`_deliver` *whole*
(:func:`~repro.sim.kernel.takes_whole_runs`): one call makes every
delivery of the instant, in order.  Because the underlying simulator
breaks ties in scheduling order, delivery is deterministic.

The bus has one door, :func:`queue_messages`: the only place that
routes, fault-checks, counts dead letters, chooses delays and queues
deliveries.  Its input is a flat ``subject, attributes, sender``
list, and each triple becomes a bus-owned
:class:`~repro.bus.messages.Message` stamped ``sim.now``.  The three
publish methods of :class:`EventBus` and of the sharded facade
(:class:`~repro.bus.sharding.ShardedEventBus`) are one call into it:
``publish`` (a caller's message, copied), ``publish_subject`` (one
message built from its fields) and ``publish_reports`` (a gauge tick
instant's reports, in one call).

A :class:`~repro.bus.messages.Message` is a tuple of its four fields
(``subject``, ``attributes``, ``time``, ``sender``), built with one
``tuple.__new__``.

The delivery model is the hook for the paper's in-band-monitoring
effect: the experiment harness installs a model whose delay grows when
the network path carrying monitoring traffic is congested, and the A2
ablation swaps in a fixed-latency (QoS-prioritized) model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.bus.filters import validate_pattern
from repro.bus.index import SubjectTrie
from repro.bus.messages import Message
from repro.sim.kernel import Simulator, takes_whole_runs
from repro.util.ids import IdGenerator

_new = tuple.__new__

__all__ = [
    "DeliveryModel",
    "FixedDelay",
    "CallableDelay",
    "Subscription",
    "EventBus",
]


class DeliveryModel:
    """Strategy choosing the bus transit delay for a message: a subclass
    defines ``delay(message) -> seconds``, except :class:`FixedDelay`,
    whose ``seconds`` the bus reads (see :func:`fixed_delay`)."""


@dataclass(frozen=True)
class FixedDelay(DeliveryModel):
    """Constant transit delay (default 10 ms; a LAN-ish event bus);
    immutable, so a bus may remember what it read."""

    seconds: float = 0.010


class CallableDelay(DeliveryModel):
    """Adapts a plain ``message -> seconds`` callable."""

    def __init__(self, fn: Callable[[Message], float]):
        self._fn = fn

    def delay(self, message: Message) -> float:
        return self._fn(message)


def fixed_delay(model: DeliveryModel) -> Optional[float]:
    """The delay every delivery under ``model`` takes, or None when the
    model is asked per message.

    The delay rule, in one place: a :class:`FixedDelay`'s ``seconds``
    is read, any other model's ``delay(message)`` is called for each
    delivery, and a negative delay is taken as 0.  :func:`queue_messages`
    (once per delivery model a bus is given) and the gauge tick, which
    must know whether a report's delivery can land on its re-arm
    instant, both ask here.
    """
    if type(model) is not FixedDelay:
        return None
    delay = float(model.seconds)
    return 0.0 if delay < 0 else delay


@takes_whole_runs
def _deliver(fields) -> None:
    """Every delivery of one kernel run, items ``bus, sub, msg, delay``
    in order.  A module function, not a method, so every bus's
    same-instant deliveries — the child buses of a sharded bus alike —
    join one run; if a handler raises, the kernel puts the deliveries
    after it back at the head of the instant."""
    for bus, sub, msg, delay in zip(fields, fields, fields, fields):
        if not sub.active:
            continue  # unsubscribed while in flight
        bus.delivered += 1
        # Transit accrues at delivery, not publish: the running mean is
        # never skewed by scheduled-but-undelivered messages, and
        # unsubscribe-cancelled deliveries contribute nothing.
        bus.total_transit += delay
        sub.handler(msg)


def queue_messages(
    sim: Simulator,
    fields: Iterable[object],
    owner: Optional["EventBus"],
    routes: Optional[Dict[str, "EventBus"]],
    route: Optional[Callable[[str], "EventBus"]],
) -> int:
    """The bus's one door: publish each ``subject, attributes, sender``
    of the flat list ``fields``; returns how many active subscriptions
    matched, dead-lettered ones included.

    Each triple is published on ``owner``, or, with ``owner`` None, on
    the bus ``routes`` memoises per subject (``route(subject)`` on a
    miss), as the message ``(subject, attributes, sim.now, sender)``,
    which the bus owns: nobody else may hold ``attributes``.  The
    subject is checked by the route lookup (``ValueError``; that
    message is not published).  Per message, in order: ``published``
    is counted, then each active subscription in subscription order is
    counted as matched and either dead-lettered by the bus's
    ``fault_injector`` or given a delivery after the delay
    :func:`fixed_delay` states (asked once per model the bus is given,
    the answer kept as ``bus._delay_rule``).  Handlers never run here,
    so each candidate set is a snapshot.  The deliveries are queued in
    publish order across buses, one ``schedule_items`` call per stretch
    of equal delays; what was routed before a raise is still queued.
    """
    now = sim.now
    fields = iter(fields)
    pending: List[object] = []  # bus, sub, msg, delay per delivery
    pending_delay = None
    matched = 0
    bus = owner
    model = fixed = None
    try:
        for subject in fields:  # a triple per message, with no tuple each
            attributes = next(fields)
            sender = next(fields)
            if owner is None:
                bus = routes.get(subject) or route(subject)
            candidates = bus._index.match(subject)
            bus.published += 1
            msg = _new(Message, (subject, attributes, now, sender))
            inject = bus.fault_injector
            if bus.delivery is not model:
                model = bus.delivery
                rule = bus._delay_rule
                if rule[0] is not model:  # a model given since last asked
                    rule = bus._delay_rule = (model, fixed_delay(model))
                fixed = rule[1]
            for sub in candidates:
                if not sub.active:
                    continue
                matched += 1
                if inject is not None and inject(sub, msg):
                    bus.dead_letters += 1
                    by_sid = bus.dead_letters_by_sid
                    by_sid[sub.sid] = by_sid.get(sub.sid, 0) + 1
                    continue
                delay = fixed
                if delay is None:
                    delay = float(model.delay(msg))
                    if delay < 0:
                        delay = 0.0
                if delay != pending_delay:
                    if pending:
                        sim.schedule_items(pending_delay, _deliver, 4, pending)
                        pending.clear()
                    pending_delay = delay
                pending.append(bus)
                pending.append(sub)
                pending.append(msg)
                pending.append(delay)
    finally:
        if pending:
            sim.schedule_items(pending_delay, _deliver, 4, pending)
    return matched


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
        #: ``(model, fixed_delay(model))`` for the last model published under
        self._delay_rule = (None, None)
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

        The caller keeps its message: what is delivered is a copy, with
        its own attribute dict, stamped with the current simulation time.
        """
        copy = (message.subject, dict(message.attributes), message.sender)
        return queue_messages(self.sim, copy, self, None, None)

    def publish_subject(self, subject: str, sender: str = "", **attributes) -> int:
        """Build and publish a message in one call, without the copy:
        nobody else holds its attribute dict."""
        return queue_messages(self.sim, (subject, attributes, sender), self, None, None)

    def publish_reports(self, reports: Iterable[object]) -> int:
        """Publish each ``subject, attributes, sender`` of the flat list
        ``reports`` (one gauge tick instant's reports), as
        ``publish_subject`` would, in one call."""
        return queue_messages(self.sim, reports, self, None, None)

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
