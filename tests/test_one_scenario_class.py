"""A scenario is one class.

Every registered scenario is a ``ScenarioExperiment`` subclass, and the
experiment *is* the ``ManagedApplication`` its runtime adapts: no wrapper
holds ``(app, params)`` beside it and no sampler class names its series a
second time.  Its ground truth is one table, ``series()``: rows
``(name, unit, read)`` whose names are exactly the result's series.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.errors import ReproError
from repro.experiment.scenarios import scenario_builder, scenario_names

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENT = ROOT / "src" / "repro" / "experiment"


def short(scenario, adaptation):
    return api.make_config(scenario, horizon=60.0, adaptation=adaptation)


@pytest.mark.parametrize("scenario", scenario_names())
def test_the_experiment_is_the_managed_application(scenario):
    experiment = scenario_builder(scenario)(short(scenario, adaptation=True))
    assert experiment.build().app is experiment


@pytest.mark.parametrize("adaptation", [False, True], ids=["control", "adapted"])
@pytest.mark.parametrize("scenario", scenario_names())
def test_series_table_names_the_result_series(scenario, adaptation):
    experiment = scenario_builder(scenario)(short(scenario, adaptation))
    names = [name for name, _, _ in experiment.series()]
    result = experiment.run()
    assert list(result.series) == names
    assert all(len(series) > 0 for series in result.series.values())


def class_bases():
    """(module, class, base names) of every class under experiment/."""
    for path in sorted(EXPERIMENT.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {
                    base.id if isinstance(base, ast.Name) else ast.unparse(base)
                    for base in node.bases
                }
                methods = {
                    item.name for item in node.body if isinstance(item, ast.FunctionDef)
                }
                yield path.name, node.name, bases, methods


def test_no_wrapper_or_sampler_class_is_left():
    wrappers = [
        (module, name)
        for module, name, bases, _ in class_bases()
        if "ManagedApplication" in bases
    ]
    assert wrappers == [("base.py", "ScenarioExperiment")]
    samplers = [
        (module, name)
        for module, name, _, methods in class_bases()
        if "series_table" in methods
    ]
    assert samplers == []


def test_import_repro_does_not_load_a_task_layer():
    code = "import sys, repro; print('repro.task' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_latency", 0.0),
        ("max_latency", -1.0),
        ("max_server_load", -1.0),
        ("min_bandwidth", -5.0),
    ],
)
def test_bad_objectives_are_refused_when_the_config_resolves(field, value):
    config = api.RunConfig.adapted(**{field: value})
    with pytest.raises(ReproError, match=field):
        config.resolved()
