"""The one scenario skeleton every experiment shares.

The paper's claim is that the adaptation infrastructure is style-neutral
and an application only supplies its style, operators, probes/gauges and
translator (§3, Figure 1).  :mod:`repro.runtime` honours that for the
control plane; this module does the same for the *experiment* around it.
Two bases own everything the scenarios used to re-type:

* :class:`ScenarioExperiment` — ``RunConfig`` in, simulator / trace /
  seed factory, "build an :class:`AdaptationRuntime` iff
  ``config.adaptation``", the run order (sources -> runtime -> extras ->
  sampler), result assembly from one ``runtime.stats()`` snapshot, and
  ``runtime.stop()`` on every exit path;
* :class:`PeriodicSampler` — the out-of-band ground-truth sampling loop;
  subclasses keep their series table and ``sample()``.

A scenario module therefore holds only what is its own: a params block,
a result subclass, the :class:`ManagedApplication` wrapper, the
:class:`AdaptationSpec`, a sampler subclass, and an intent table
(``op -> IntentRow(cost, apply)``) that the wrapper hands to the one
replay loop, :class:`~repro.translation.IntentTranslator`.  Nothing in
here branches on the scenario; per-scenario start order is expressed by
which hook a scenario fills in.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, Type

from repro.experiment.config import RunConfig
from repro.experiment.result import RunResult
from repro.experiment.series import TimeSeries
from repro.repair.history import RepairHistory
from repro.runtime import (
    AdaptationRuntime,
    AdaptationSpec,
    ManagedApplication,
    RuntimeStats,
)
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.trace import Trace
from repro.util.rng import SeedSequenceFactory

__all__ = ["ScenarioExperiment", "PeriodicSampler"]


class PeriodicSampler:
    """The experimenter's out-of-band instrumentation.

    Reads ground truth from the running application every
    ``config.sample_period`` seconds into named :class:`TimeSeries`.  The
    adaptation loop never sees these series — it only sees gauge reports
    with their delays and windows.
    """

    def __init__(self, experiment: "ScenarioExperiment"):
        self.experiment = experiment
        self.period = experiment.config.sample_period
        self.series: Dict[str, TimeSeries] = {
            name: TimeSeries(name, unit) for name, unit in self.series_table()
        }

    def series_table(self) -> Iterable[Tuple[str, str]]:
        """``(name, unit)`` of every series this sampler records."""
        raise NotImplementedError

    def sample(self) -> None:
        """Record one observation of every series."""
        raise NotImplementedError

    def record(self, name: str, value: float) -> None:
        self.series[name].append(self.experiment.sim.now, value)

    def repair_active(self) -> float:
        """1.0 while a repair is in flight (the marks atop Figures 11-13)."""
        manager = self.experiment.manager
        return 1.0 if (manager is not None and manager.busy) else 0.0

    def start(self) -> Process:
        return Process(self.experiment.sim, self._run(), name=type(self).__name__)

    def _run(self):
        sim = self.experiment.sim
        while True:
            self.sample()
            yield sim.timeout(self.period)


class ScenarioExperiment:
    """One wired run (control or adapted) of a registered scenario.

    Subclasses fill in :meth:`setup` (``self.app`` + workload, appending
    whatever must start first to ``self.sources``),
    :meth:`managed_application` and :meth:`_adaptation_spec`, extend
    :meth:`outcome`, and name their ``SAMPLER`` / ``RESULT`` types.
    ``start_extras`` is the hook for anything that must start *after*
    the control plane but before the sampler.
    """

    #: the RunResult (sub)class :meth:`run` returns
    RESULT: Type[RunResult] = RunResult
    #: the PeriodicSampler subclass recording this scenario's ground truth
    SAMPLER: Type[PeriodicSampler]

    def __init__(self, config: RunConfig):
        self.config = config = config.resolved()
        self.params = config.params
        self.sim = Simulator()
        self.trace = Trace()
        self.seeds = SeedSequenceFactory(config.seed)
        #: workload generators :meth:`run` starts first, in order
        self.sources: List[Any] = []
        self.setup()
        self.runtime = self._build_runtime()
        self.metrics = self.SAMPLER(self)

    # -- what a scenario supplies ------------------------------------------
    def setup(self) -> None:
        """Build the application and its workload (nothing starts yet)."""
        raise NotImplementedError

    def managed_application(self) -> ManagedApplication:
        """The application, wrapped for the adaptation runtime."""
        raise NotImplementedError

    def _adaptation_spec(self) -> AdaptationSpec:
        """The scenario's control plane, declaratively."""
        raise NotImplementedError

    def start_extras(self) -> None:
        """Start whatever must follow the control plane's probes."""

    def outcome(self, stats: RuntimeStats) -> Dict[str, Any]:
        """The result fields only the scenario knows.

        The default reads the totals off ``self.app``; scenarios extend
        it with their result subclass's fields.  ``stats`` is the
        runtime's snapshot (all-empty on control runs); returned keys
        override the counter sections the base fills in.
        """
        return {"issued": self.app.issued, "completed": self.app.completed}

    # -- the shared skeleton -----------------------------------------------
    def _build_runtime(self) -> Optional[AdaptationRuntime]:
        if not self.config.adaptation:
            return None
        return AdaptationRuntime(
            self.sim,
            self.managed_application(),
            self._adaptation_spec(),
            trace=self.trace,
        )

    def build(self) -> Optional[AdaptationRuntime]:
        """The control plane bound to this config (None on control runs)."""
        return self.runtime

    @property
    def manager(self):
        return self.runtime.manager if self.runtime is not None else None

    @property
    def model(self):
        return self.runtime.model if self.runtime is not None else None

    def run(self) -> RunResult:
        """Run the bound config to its horizon and snapshot the result.

        The control plane is stopped on success *and* on error paths
        (after the snapshot, so counters do not move): batched probes
        flush their buffered tail instead of silently dropping it.
        """
        try:
            for source in self.sources:
                source.start()
            if self.runtime is not None:
                self.runtime.start()
            self.start_extras()
            self.metrics.start()
            self.sim.run(until=self.config.horizon)
            return self._result()
        finally:
            if self.runtime is not None:
                self.runtime.stop()

    def _result(self) -> RunResult:
        rt = self.runtime
        snapshot = rt.stats() if rt is not None else None
        stats = snapshot if snapshot is not None else RuntimeStats()
        fields: Dict[str, Any] = {"fault_stats": dict(stats.faults or {})}
        fields.update(self.outcome(stats))
        return self.RESULT(
            config=self.config,
            series=self.metrics.series,
            trace=self.trace,
            history=rt.history if rt is not None else RepairHistory(),
            stats=snapshot,
            **fields,
        )
