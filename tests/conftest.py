"""Shared test fixtures.

The experiment runner caches full :class:`RunResult` objects per
scenario config (benches share the 30-minute headline runs).  Tests must
not inherit results from a previous pytest session or leak their own into
the next one, so the cache is cleared at session boundaries; within one
session the LRU still de-duplicates repeated runs.
"""

import pytest

from repro.experiment.runner import clear_cache


@pytest.fixture(autouse=True, scope="session")
def _fresh_experiment_cache():
    """Start and end every pytest session with an empty result cache."""
    clear_cache()
    yield
    clear_cache()
