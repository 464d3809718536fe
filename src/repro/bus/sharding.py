"""Per-shard event buses behind one publish/subscribe facade.

The runtime gives every shard its own :class:`EventBus` so shard-local
monitoring traffic never serializes through a global bus; a one-shard
plane's facade has one child, and adds only the route lookup.
:class:`ShardedEventBus` is the facade the existing probes, gauges, and
updaters talk to unchanged: it routes each publish to exactly **one**
child bus chosen from the message subject, and routes each subscribe to
the child bus(es) its pattern can match.

Routing uses the repo-wide subject convention ``kind.metric.target``
(probes publish ``probe.latency.T3``, gauges ``gauge.latency.T3``): the
*last* dot-segment names the model element, and the sharded model's
``shard_of`` says which shard owns it.  Subjects whose target the model
does not know deterministically land on shard 0 — and the same rule is
applied to fully-literal subscription patterns, so an unknown-target
publish still meets its unknown-target subscriber on shard 0 exactly
once.  Only patterns containing a wildcard token (``*`` or ``>``) fan
out to every child bus; a wildcard subscriber therefore sees each
message once, because the publish side never broadcasts.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.bus.bus import (
    DeliveryModel,
    EventBus,
    FixedDelay,
    Subscription,
    queue_messages,
)
from repro.bus.index import ROUTE_MEMO_CAP
from repro.bus.messages import Message, subject_segments
from repro.sim.kernel import Simulator

__all__ = ["ShardedEventBus", "ShardedSubscription"]


class ShardedSubscription:
    """Handle over one logical subscription's per-shard registrations.

    ``owners[i]`` is the child bus ``parts[i]`` is registered on: child
    buses number their subscriptions independently, so a ``sid`` alone
    does not say which child a part belongs to.
    """

    def __init__(
        self, pattern: str, parts: List[Subscription], owners: List[EventBus]
    ):
        self.pattern = pattern
        self.parts = parts
        self.owners = owners

    @property
    def active(self) -> bool:
        return any(sub.active for sub in self.parts)


def _has_wildcard(pattern: str) -> bool:
    return any(token in ("*", ">") for token in pattern.split("."))


class ShardedEventBus:
    """Facade over one :class:`EventBus` per shard.

    ``shard_of`` maps a model element name to its owning shard (``None``
    for names the model does not know); each subject's child is memoised
    (cleared past :data:`~repro.bus.index.ROUTE_MEMO_CAP`), so its answer
    must never change, as a partition's ``assignment`` never does.  The
    facade exposes the same publish/subscribe/stats surface as a single
    bus; per-child access is available through :meth:`shard` for
    shard-scoped wiring (e.g. the per-shard property updaters).
    """

    def __init__(
        self,
        sim: Simulator,
        shards: int,
        shard_of: Callable[[str], Optional[int]],
        delivery: Optional[DeliveryModel] = None,
        name: str = "bus",
    ):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.sim = sim
        self.name = name
        self._shard_of = shard_of
        self._routes: Dict[str, EventBus] = {}  # subject -> child bus
        #: the delivery model every child shares
        self.delivery = delivery or FixedDelay()
        self._buses = [
            EventBus(sim, self.delivery, name=f"{name}[{k}]") for k in range(shards)
        ]
        #: the one child every publish goes to, or None: route per subject
        #: through the memo, with ``_route`` bound once for a miss
        self._owner = self._buses[0] if shards == 1 else None
        self._lookup = None if shards == 1 else self._route

    # -- routing -----------------------------------------------------------
    def _route(self, subject: str) -> EventBus:
        """The child ``subject`` goes to, worked out once per subject
        (callers read the memo first); a malformed one raises as a child
        bus would and is not remembered."""
        shard = self._shard_of(subject_segments(subject)[-1])
        child = self._buses[0 if shard is None else shard % len(self._buses)]
        if len(self._routes) >= ROUTE_MEMO_CAP:
            self._routes.clear()
        self._routes[subject] = child
        return child

    def shard(self, index: int) -> EventBus:
        return self._buses[index]

    @property
    def shard_count(self) -> int:
        return len(self._buses)

    # -- subscription management -------------------------------------------
    def subscribe(
        self, pattern: str, handler: Callable[[Message], None]
    ) -> Union[Subscription, ShardedSubscription]:
        """Register on the child bus(es) ``pattern`` can match.

        Wildcard patterns register everywhere; literal patterns register
        only on their target's home shard (unknown target -> shard 0,
        mirroring publish routing).  A registration on one child returns
        that child's own :class:`Subscription`; only a fan-out over
        several gets a :class:`ShardedSubscription` handle.
        """
        buses = self._buses
        if len(buses) > 1 and not _has_wildcard(pattern):
            buses = [self._routes.get(pattern) or self._route(pattern)]
        parts = [bus.subscribe(pattern, handler) for bus in buses]
        if len(parts) == 1:
            return parts[0]
        return ShardedSubscription(pattern, parts, list(buses))

    def unsubscribe(self, sub) -> None:
        """Unsubscribe a facade handle or a raw child subscription."""
        if isinstance(sub, ShardedSubscription):
            for bus, part in zip(sub.owners, sub.parts):
                bus.unsubscribe(part)
            return
        # a raw part does not say where it lives; a child ignores a
        # subscription that is not its own, so asking each is safe
        for bus in self._buses:
            bus.unsubscribe(sub)

    @property
    def subscriptions(self) -> List[Subscription]:
        return [sub for bus in self._buses for sub in bus.subscriptions]

    # -- publication -------------------------------------------------------
    # As EventBus's three doors, each message on the child its subject
    # routes to (a one-child facade skips the route), the deliveries
    # queued in publish order across children.
    def publish(self, message: Message) -> int:
        copy = (message.subject, dict(message.attributes), message.sender)
        return queue_messages(self.sim, copy, self._owner, self._routes, self._lookup)

    def publish_subject(self, subject: str, sender: str = "", **attributes) -> int:
        one = (subject, attributes, sender)
        return queue_messages(self.sim, one, self._owner, self._routes, self._lookup)

    def publish_reports(self, reports: Iterable[object]) -> int:
        owner, routes, lookup = self._owner, self._routes, self._lookup
        return queue_messages(self.sim, reports, owner, routes, lookup)

    # -- fault plane -------------------------------------------------------
    @property
    def fault_injector(self):
        return self._buses[0].fault_injector

    @fault_injector.setter
    def fault_injector(self, fn) -> None:
        for bus in self._buses:
            bus.fault_injector = fn

    @property
    def dead_letters(self) -> int:
        return sum(bus.dead_letters for bus in self._buses)

    @property
    def dead_letters_by_sid(self) -> Dict[str, int]:
        """The children's per-subscriber dead letters in one map: with
        several children a sid carries its child's index (``sub-3[1]``),
        because children number subscriptions independently."""
        if len(self._buses) == 1:
            return dict(self._buses[0].dead_letters_by_sid)
        return {
            f"{sid}[{k}]": count
            for k, bus in enumerate(self._buses)
            for sid, count in bus.dead_letters_by_sid.items()
        }

    # -- reporting ---------------------------------------------------------
    @property
    def published(self) -> int:
        return sum(bus.published for bus in self._buses)

    @property
    def delivered(self) -> int:
        return sum(bus.delivered for bus in self._buses)

    @property
    def mean_transit(self) -> float:
        delivered = self.delivered
        if not delivered:
            return 0.0
        total = sum(bus.total_transit for bus in self._buses)
        return total / delivered

    def stats(self) -> Dict[str, float]:
        """Rollup of the children's counters, same shape as a single bus."""
        data: Dict[str, float] = {
            "published": self.published,
            "delivered": self.delivered,
            "mean_transit": self.mean_transit,
        }
        children = [bus.stats() for bus in self._buses]
        if any("dead_letters" in child for child in children):
            data["dead_letters"] = sum(
                child.get("dead_letters", 0) for child in children
            )
        return data

    def shard_stats(self) -> List[Dict[str, float]]:
        """Per-child counters, index-aligned with shard numbers."""
        return [bus.stats() for bus in self._buses]
