"""Deterministic random-number management.

The paper controlled its experiment by "seeding the clients so that the size
of requests and responses occurred in the same sequence in both experiments"
(§5.1).  We generalize: every stochastic consumer (each client, each traffic
generator) receives its *own* ``numpy`` Generator derived from a root seed
and a stable string key.  Control and adapted runs built from the same root
seed therefore see identical request sequences regardless of how the
adaptation machinery perturbs event interleaving.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["SeedSequenceFactory", "derive_rng"]


def _key_to_int(key: str) -> int:
    """Map a string key to a stable 64-bit integer (sha256-based)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(root_seed: int, key: str) -> np.random.Generator:
    """Return a Generator deterministically derived from ``(root_seed, key)``.

    Distinct keys yield statistically independent streams; the same pair
    always yields the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence([root_seed, _key_to_int(key)]))


class SeedSequenceFactory:
    """Hands out named, independent random streams from one root seed.

    >>> f = SeedSequenceFactory(7)
    >>> a = f.rng("client.C1")
    >>> b = f.rng("client.C2")

    Calling :meth:`rng` twice with the same key returns a *fresh* generator
    positioned at the start of the same stream, which is exactly what the
    control-vs-adapted methodology needs.
    """

    def __init__(self, root_seed: int = 0) -> None:
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        self.root_seed = int(root_seed)

    def rng(self, key: str) -> np.random.Generator:
        """Return a fresh generator for stream ``key``."""
        return derive_rng(self.root_seed, key)
