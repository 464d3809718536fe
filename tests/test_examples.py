"""Every script under ``examples/`` runs to completion (exit 0).

Each runs in its own interpreter, as a reader would run it.  The slow
one starts first, in the background, so the rest run beside it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = "load_balancing_experiment.py"
EXAMPLES = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def launch(name):
    return subprocess.Popen(
        [sys.executable, str(ROOT / "examples" / name)],
        env=ENV,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


@pytest.fixture(scope="module")
def slow():
    run = launch(SLOW)
    yield run
    run.kill()
    run.communicate()


def test_there_are_six_examples():
    assert len(EXAMPLES) == 6 and SLOW in EXAMPLES


@pytest.mark.parametrize(
    "name", sorted(EXAMPLES, key=lambda name: name == SLOW)  # the slow one last
)
def test_example_exits_0(name, slow):
    run = slow if name == SLOW else launch(name)
    try:
        out, err = run.communicate(timeout=120)
    finally:
        run.kill()
    assert run.returncode == 0, f"{name} exited {run.returncode}:\n{err}"
    assert out.strip()
