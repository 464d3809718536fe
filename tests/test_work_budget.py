"""Work ceilings: Python calls per telemetry sample on two small planes.

Wall clock on a shared host spreads widely; the number of Python calls
a control period makes repeats to the call.  ``tools/callcount.py``
counts them with the stdlib profiler hook, charged to the layers of the
e2e tracer's table, and this pins four of its rows as ceilings:

* ``steady`` at N = 50 — the simulated plane with every pool healthy
  (ingest, probe bus, gauges, model writes);
* ``storm`` at N = 50 — the same plane while a cohort is grown and
  shrunk each period (checker, engine, DSL, effector on top);
* ``react`` at N = 50 — two ``react_1k`` rounds after an uncounted
  first: the gauge reports of a whole plane, the checker and the engine;
* ``live`` at 20 pools — the online plane on a ``FakeClock``, flooded
  through ``RealtimeDriver.ingest`` and the paced loop's drains.

A ceiling moves down with the change that earns it.  It moves up only
with a reason, in CHANGES.md, that names the layer and what the extra
work buys.  When one fails, run the tool at the same size on the parent
commit and compare ``layers_per_sample``.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "callcount.py"

#: calls per sample, as measured when the ceiling was last moved
STEADY_50 = 4.288
STORM_50 = 6.982
REACT_50 = 27.88
LIVE_20 = 4.554834


@pytest.fixture(scope="module")
def callcount():
    spec = importlib.util.spec_from_file_location("callcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _within(row, ceiling):
    assert row["calls_per_sample"] <= ceiling, row["layers_per_sample"]


def test_steady_plane_at_50_pools(callcount):
    row = callcount.count(50, storm=False, periods=2, seed=7)
    assert row["samples"] == 2 * 2 * 5 * 50
    _within(row, STEADY_50)


def test_storm_plane_at_50_pools(callcount):
    row = callcount.count(50, storm=True, periods=2, seed=7)
    assert row["samples"] == 2 * 2 * 5 * 50
    _within(row, STORM_50)


def test_react_rounds_at_50_pools(callcount):
    row = callcount.count_react(50, rounds=2, seed=7)
    assert row["samples"] == 2 * 5 * 10 * 2  # rounds x ticks x pools x kinds
    _within(row, REACT_50)


def test_live_plane_at_20_pools(callcount):
    row = callcount.count_live(20, periods=1, seed=7)
    assert row["samples"] == callcount.LIVE_CHUNKS * 2048
    _within(row, LIVE_20)
