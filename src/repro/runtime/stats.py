"""The unified runtime statistics surface.

:class:`RuntimeStats` is the one typed, frozen snapshot
:meth:`AdaptationRuntime.stats() <repro.runtime.core.AdaptationRuntime.stats>`
returns: the five counter sections (bus / gauges / constraints / repairs
/ telemetry), the ``faults`` section when a fault plane exists, and — on
a plane of several shards — one :class:`ShardStats` per shard next to the
aggregate rollup.

Shape discipline: :meth:`RuntimeStats.to_dict` keeps the historical
dict shape (regression tests pin this), with ``faults`` present only
when a plane exists and ``shards`` present only for several shards.
:meth:`to_json` is strict JSON (``allow_nan=False``): a snapshot that
cannot round-trip is a bug, not a serialization quirk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["RuntimeStats", "ShardStats"]


@dataclass(frozen=True)
class ShardStats:
    """One shard's slice of the counters (bus / constraints / repairs).

    Gauge, telemetry, and fault counters have no per-shard split — the
    gauge manager, probes, and fault plane are runtime-global — so a
    shard section carries only the planes that actually partition.
    """

    shard: int
    bus: Mapping[str, float]
    constraints: Mapping[str, int]
    repairs: Mapping[str, int]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "bus": dict(self.bus),
            "constraints": dict(self.constraints),
            "repairs": dict(self.repairs),
        }


@dataclass(frozen=True)
class RuntimeStats:
    """Every runtime counter section at once, typed and frozen."""

    bus: Mapping[str, float] = field(default_factory=dict)
    gauges: Mapping[str, int] = field(default_factory=dict)
    constraints: Mapping[str, int] = field(default_factory=dict)
    repairs: Mapping[str, int] = field(default_factory=dict)
    telemetry: Mapping[str, int] = field(default_factory=dict)
    #: None on runs without a fault plane (section absent from the dict)
    faults: Optional[Mapping[str, Any]] = None
    #: per-shard sections; empty on a one-shard plane
    shards: Tuple[ShardStats, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """The historical ``AdaptationRuntime.stats()`` dict shape.

        ``faults`` appears only when a fault plane existed and
        ``shards`` only for several shards, so one-shard no-fault
        runs keep their exact historical shape.
        """
        data: Dict[str, Any] = {
            "bus": dict(self.bus),
            "gauges": dict(self.gauges),
            "constraints": dict(self.constraints),
            "repairs": dict(self.repairs),
            "telemetry": dict(self.telemetry),
        }
        if self.faults is not None:
            data["faults"] = dict(self.faults)
        if self.shards:
            data["shards"] = [shard.to_dict() for shard in self.shards]
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """Strict JSON (``allow_nan=False``) of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RuntimeStats":
        """Inverse of :meth:`to_dict` (e.g. after a JSON round trip)."""
        return cls(
            bus=dict(data.get("bus", {})),
            gauges=dict(data.get("gauges", {})),
            constraints=dict(data.get("constraints", {})),
            repairs=dict(data.get("repairs", {})),
            telemetry=dict(data.get("telemetry", {})),
            faults=(dict(data["faults"]) if data.get("faults") is not None else None),
            shards=tuple(
                ShardStats(
                    shard=entry["shard"],
                    bus=dict(entry.get("bus", {})),
                    constraints=dict(entry.get("constraints", {})),
                    repairs=dict(entry.get("repairs", {})),
                )
                for entry in data.get("shards", ())
            ),
        )
