"""Unit conventions.

Internal conventions used throughout the library:

* **time** — seconds (floats);
* **data sizes** — bytes;
* **bandwidth** — bits per second (the networking convention; the paper's
  figures are labelled in Mbps and its threshold is 10 Kbps).
"""

from __future__ import annotations

__all__ = [
    "BYTE",
    "KB",
    "MB",
    "KBPS",
    "MBPS",
]

BYTE = 1
KB = 1000  # network KB (the paper's "20K" responses); decimal, not KiB
MB = 1000 * 1000

KBPS = 1_000.0  # bits per second
MBPS = 1_000_000.0
