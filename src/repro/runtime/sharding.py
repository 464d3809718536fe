"""Frozen sharding configuration + the pluggable shard-key registry.

A :class:`ShardingSpec` says *how the control plane is partitioned* —
how many shards, and which named key function assigns model elements
to them — without wiring any of it.  Like
:class:`~repro.faults.spec.FaultSpec` it is a frozen, hashable
dataclass, but it is additionally validated **on construction**
(``__post_init__``): a spec object that exists is a spec object that is
internally consistent, so config plumbing (``--set sharding.shards=4``)
fails at parse time, not mid-build.

Shard keys are plain functions ``(element_name, shards) -> Optional[int]``
registered under a name; ``None`` means "no opinion" and lands the
element on shard 0.  Two keys ship:

* ``"hash"`` — CRC-32 of the element name modulo the shard count
  (deterministic across processes — deliberately *not* Python's
  ``hash()``, which varies with ``PYTHONHASHSEED``);
* ``"numeric_suffix"`` — the element name's trailing digits modulo the
  shard count (``T7`` -> ``7 % shards``), the natural key for styles
  that number their tenants / stages / sites.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = [
    "ShardingSpec",
    "ShardKeyFn",
    "register_shard_key",
    "resolve_shard_key",
    "shard_key_names",
]

#: ``(element_name, shards) -> shard index`` (None = no opinion -> shard 0)
ShardKeyFn = Callable[[str, int], Optional[int]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid sharding spec: {message}")


@dataclass(frozen=True)
class ShardingSpec:
    """How to partition one scenario's control plane.

    ``shards`` is the partition count: 1, the default, is the off
    position — one shard holds the whole model and runs the
    fingerprint-pinned single loop.  ``key`` names a registered
    shard-key function.
    """

    shards: int = 1
    key: str = "hash"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        _require(isinstance(self.shards, int), "shards must be an int")
        _require(self.shards >= 1, f"shards must be >= 1, got {self.shards}")
        _require(
            isinstance(self.key, str) and bool(self.key),
            "key must name a registered shard key function",
        )


# ---------------------------------------------------------------------------
# Shard-key registry
# ---------------------------------------------------------------------------
_SHARD_KEYS: Dict[str, ShardKeyFn] = {}


def register_shard_key(name: str, fn: ShardKeyFn) -> None:
    """Register ``fn`` under ``name`` (re-registration is an error)."""
    if name in _SHARD_KEYS:
        raise ValueError(f"shard key {name!r} already registered")
    _SHARD_KEYS[name] = fn


def resolve_shard_key(name: str) -> ShardKeyFn:
    try:
        return _SHARD_KEYS[name]
    except KeyError:
        raise ValueError(
            f"unknown shard key {name!r}; registered: {shard_key_names()}"
        ) from None


def shard_key_names() -> list:
    return sorted(_SHARD_KEYS)


def _hash_key(name: str, shards: int) -> int:
    # crc32, not hash(): stable across interpreters and PYTHONHASHSEED.
    return zlib.crc32(name.encode("utf-8")) % shards


def _numeric_suffix_key(name: str, shards: int) -> Optional[int]:
    digits = ""
    for ch in reversed(name):
        if ch.isdigit():
            digits = ch + digits
        else:
            break
    if not digits:
        return None
    return int(digits) % shards


register_shard_key("hash", _hash_key)
register_shard_key("numeric_suffix", _numeric_suffix_key)
