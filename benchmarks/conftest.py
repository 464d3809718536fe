"""Shared fixtures for the benchmark harness.

The two headline 30-minute scenarios are simulated once per session and
shared by every figure bench (the paper's Figures 8-10 come from one
control run, 11-13 from one adapted run).  Each bench writes its rendered
rows/series to ``benchmarks/out/<id>.txt`` so the regenerated artifacts
are inspectable after a captured pytest run, and asserts the paper-shape
claims inline.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import api

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def control_result():
    """The paper's control run (no adaptation), full 1800 s.

    Built through the scenario-neutral front door; benches that ask for
    the same ``api.RunConfig.control()`` share this cache entry.
    """
    return api.run(api.RunConfig.control())


@pytest.fixture(scope="session")
def adapted_result():
    """The paper's repair run (full adaptation framework), full 1800 s."""
    return api.run(api.RunConfig.adapted())


@pytest.fixture(scope="session")
def artifact():
    """Writer: artifact('fig08', text) -> benchmarks/out/fig08.txt."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> str:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        return str(path)

    return write
