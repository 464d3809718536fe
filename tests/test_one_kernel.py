"""One kernel: every pinned run reproduces on the realtime scheduler.

``repro serve`` and the live demo execute the control plane on
:class:`~repro.realtime.scheduler.RealtimeScheduler`; the registered
scenarios run on the discrete-event :class:`~repro.sim.kernel.Simulator`.
The realtime scheduler is a drop-in simulator, so under a
:class:`~repro.realtime.clock.FakeClock` (waits advance logical time
instantly) every adapted and control run must produce the digest
``tests/test_serial_fingerprints.py`` pins for the simulated kernel.

The run is built through the scenario registry rather than ``api.run``:
the latter serves results from an in-memory cache, and a fresh run would
write the realtime result back into it.
"""

import pytest

import repro.experiment.base as base
from repro import api
from repro.experiment.scenarios import scenario_builder
from repro.realtime import FakeClock, RealtimeScheduler

from test_serial_fingerprints import PINNED, PINNED_CONTROL, fingerprint

PINS = {"adapted": PINNED, "control": PINNED_CONTROL}
CASES = [
    pytest.param(kind, name, id=f"{name}-{kind}")
    for kind, pins in PINS.items()
    for name in sorted(pins)
]


@pytest.mark.parametrize("kind,scenario", CASES)
def test_pinned_run_reproduces_on_the_realtime_kernel(monkeypatch, kind, scenario):
    made = []

    def realtime_kernel():
        scheduler = RealtimeScheduler(FakeClock())
        made.append(scheduler)
        return scheduler

    monkeypatch.setattr(base, "Simulator", realtime_kernel)
    config = getattr(api.RunConfig, kind)(scenario)
    experiment = scenario_builder(scenario)(config)
    result = experiment.run()

    assert fingerprint(result) == PINS[kind][scenario]
    # the substitution took effect: this run's one kernel was realtime
    assert len(made) == 1 and made[0] is experiment.sim
    assert made[0].clock.elapsed() == experiment.config.horizon
