"""Shared utilities: id generation, deterministic RNG, sliding windows,
units, and plain-text table rendering."""

from repro.util.ids import IdGenerator
from repro.util.rng import SeedSequenceFactory, derive_rng
from repro.util.windows import SlidingWindow, EWMA, StepFunction
from repro.util.units import (
    KBPS,
    MBPS,
    BYTE,
    KB,
    MB,
)
from repro.util.tables import render_table, render_series

__all__ = [
    "IdGenerator",
    "SeedSequenceFactory",
    "derive_rng",
    "SlidingWindow",
    "EWMA",
    "StepFunction",
    "KBPS",
    "MBPS",
    "BYTE",
    "KB",
    "MB",
    "render_table",
    "render_series",
]
