"""Deterministic, human-readable identifier generation.

The simulation, the bus, and the architectural model all need unique names.
Randomized ids (uuid4) would break run-to-run determinism, so ids are
sequential per prefix: ``flow-1``, ``flow-2``, ``gauge-1``...
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

__all__ = ["IdGenerator"]


class IdGenerator:
    """Produces ``prefix-N`` names with an independent counter per prefix.

    Instances are cheap; each subsystem owning an ``IdGenerator`` is fully
    deterministic and isolated from the others.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)

    def next(self, prefix: str) -> str:
        """Return the next unique name for ``prefix``."""
        self._counters[prefix] += 1
        return f"{prefix}-{self._counters[prefix]}"

    def peek(self, prefix: str) -> int:
        """Return how many names have been issued for ``prefix``."""
        return self._counters[prefix]
