"""The whole-plane benchmark's tracer still finds every entry point.

``benchmarks/e2e/trace.py`` wraps the methods named in ``ENTRY_POINTS``
at class level; a row whose module, class or method moved is skipped
and counted in ``trace.missing``, so a refactor that renames one of them
silently empties a layer of the traced benchmark.  This imports each
row (nothing is wrapped or run) so tier-1 catches the move.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
# the package is ``e2e`` under benchmarks/: its trace.py never shadows
# the standard library's
if str(BENCHMARKS) not in sys.path:
    sys.path.append(str(BENCHMARKS))

from e2e.trace import ENTRY_POINTS  # noqa: E402


@pytest.mark.parametrize(
    "entry",
    ENTRY_POINTS,
    ids=[".".join(p for p in (e.module, e.cls, e.attr) if p) for e in ENTRY_POINTS],
)
def test_entry_point_resolves_to_a_plain_function(entry):
    owner = importlib.import_module(entry.module)
    if entry.cls is not None:
        owner = getattr(owner, entry.cls)
    assert isinstance(getattr(owner, entry.attr), types.FunctionType)
