"""Subject-based publish/subscribe event bus (substrate S2).

Stands in for the Siena wide-area event notification service the paper used
to carry probe and gauge traffic.  Supports hierarchical subjects with
wildcards and an optional delivery-latency model so monitoring traffic can
contend with application traffic (the paper's §5.3 observation that
monitoring shares the network).
"""

from repro.bus.messages import Message
from repro.bus.filters import subject_matches, validate_pattern
from repro.bus.index import SubjectTrie
from repro.bus.bus import (
    EventBus,
    Subscription,
    DeliveryModel,
    FixedDelay,
    CallableDelay,
)
from repro.bus.sharding import ShardedEventBus, ShardedSubscription

__all__ = [
    "ShardedEventBus",
    "ShardedSubscription",
    "Message",
    "subject_matches",
    "validate_pattern",
    "SubjectTrie",
    "EventBus",
    "Subscription",
    "DeliveryModel",
    "FixedDelay",
    "CallableDelay",
]
