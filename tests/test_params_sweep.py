"""Every value a config accepts builds.

A boundary sweep over every registered scenario's numeric knobs: each
knob, on its own, takes every candidate of its type over the defaults.
A candidate must either be refused when the config resolves, with a
:class:`ReproError` that names the knob, or build (adapted, default
horizon; nothing runs).  A value that resolves and then fails in the
build is the gap this test exists to catch.
"""

import dataclasses
import re

import pytest

from repro.errors import ReproError
from repro.experiment import RunConfig
from repro.experiment.scenarios import scenario_entry, scenario_names

FLOATS = (0.0, -1.0, 0.5, 2.0, 1000.0)
INTS = (0, -1, 1, 2, 1000)


def numeric_knobs(name):
    defaults = scenario_entry(name).params_type()
    for field in dataclasses.fields(defaults):
        value = getattr(defaults, field.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        yield field.name, FLOATS if isinstance(value, float) else INTS


def outcome(name, knob, value):
    """None when the value is refused naming the knob or builds, else why not."""
    try:
        config = RunConfig.adapted(name).but(**{knob: value}).resolved()
    except ReproError as exc:
        if re.search(rf"\b{re.escape(knob)}\b", str(exc)):
            return None
        return f"refused without naming the knob: {exc}"
    try:
        scenario_entry(name).builder(config)
    except Exception as exc:  # noqa: BLE001 - any build failure is the gap
        return f"resolved, then the build raised {type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_accepted_value_builds(name):
    gaps = [
        f"{knob}={value}: {why}"
        for knob, candidates in numeric_knobs(name)
        for value in candidates
        if (why := outcome(name, knob, value)) is not None
    ]
    assert not gaps, "\n".join(gaps)
