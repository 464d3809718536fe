"""The one scenario skeleton every experiment shares.

The paper's claim is that the adaptation infrastructure is style-neutral
and an application only supplies its style, operators, probes/gauges and
translator (§3, Figure 1).  :mod:`repro.runtime` honours that for the
control plane; this module does the same for the *experiment* around it.
:class:`ScenarioExperiment` owns everything the scenarios used to re-type:
``RunConfig`` in, simulator / trace / seed factory, "build an
:class:`AdaptationRuntime` iff ``config.adaptation``", the run order
(sources -> runtime -> extras -> sampler), the out-of-band ground-truth
sampling loop, result assembly from one ``runtime.stats()`` snapshot, and
``runtime.stop()`` on every exit path.

An experiment *is* the :class:`ManagedApplication` its runtime adapts, so
a scenario is one class: a params block and a result subclass beside it,
and on it the model (``architecture()``), an intent table
(``intents()``: ``op -> IntentRow(cost, apply)``, replayed by the one
:class:`~repro.translation.IntentTranslator` built here), the
:class:`AdaptationSpec`, and a ground-truth table (``series()``).
Nothing in here branches on the scenario; per-scenario start order is
expressed by which hook a scenario fills in.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

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
from repro.translation import IntentRow, IntentTranslator
from repro.util.rng import SeedSequenceFactory

__all__ = ["ScenarioExperiment"]

#: one ground-truth series: ``(name, unit, read)``; ``read()`` returns
#: the value now (``None`` is stored as NaN)
SeriesRow = Tuple[str, str, Callable[[], Optional[float]]]


class ScenarioExperiment(ManagedApplication):
    """One wired run (control or adapted) of a registered scenario.

    Subclasses fill in :meth:`setup` (``self.app`` + workload, appending
    whatever must start first to ``self.sources``), the
    :class:`ManagedApplication` methods (:meth:`architecture`,
    :meth:`intents` — or all of :meth:`intent_executor` — optionally
    :meth:`runtime_view` / :meth:`bind_faults`), :meth:`_adaptation_spec`
    and :meth:`series`,
    extend :meth:`outcome`, and name their ``RESULT`` type.
    ``start_extras`` is the hook for anything that must start *after*
    the control plane but before the sampler.
    """

    #: the RunResult (sub)class :meth:`run` returns
    RESULT: Type[RunResult] = RunResult

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
        self._sampled = [
            (TimeSeries(name, unit), read) for name, unit, read in self.series()
        ]

    # -- what a scenario supplies ------------------------------------------
    def setup(self) -> None:
        """Build the application and its workload (nothing starts yet)."""
        raise NotImplementedError

    def intents(self) -> Dict[str, IntentRow]:
        """The intent table ``op -> IntentRow(cost, apply)``; an ``apply``
        returns the entities its gauges go blind for (redeploy window)."""
        raise NotImplementedError

    def intent_executor(self, runtime: AdaptationRuntime) -> IntentTranslator:
        """The one replay loop over :meth:`intents`."""
        window = getattr(self.params, "redeploy_window", 0.0)
        return IntentTranslator(
            runtime.sim, self.intents(), runtime.trace, runtime.gauge_manager, window
        )

    def _adaptation_spec(self) -> AdaptationSpec:
        """The scenario's control plane, declaratively."""
        raise NotImplementedError

    def series(self) -> Iterable[SeriesRow]:
        """The experimenter's out-of-band instrumentation.

        ``(name, unit, read)`` of every ground-truth series, read every
        ``config.sample_period`` seconds.  The adaptation loop never sees
        these series — it only sees gauge reports with their delays and
        windows.
        """
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
            self.sim, self, self._adaptation_spec(), trace=self.trace
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

    def repair_active(self) -> float:
        """1.0 while a repair is in flight (the marks atop Figures 11-13)."""
        manager = self.manager
        return 1.0 if (manager is not None and manager.busy) else 0.0

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
            Process(self.sim, self._sample(), name="sampler")
            self.sim.run(until=self.config.horizon)
            return self._result()
        finally:
            if self.runtime is not None:
                self.runtime.stop()

    def _sample(self):
        sim, period, sampled = self.sim, self.config.sample_period, self._sampled
        while True:
            now = sim.now
            for series, read in sampled:
                series.append(now, read())
            yield sim.timeout(period)

    def _result(self) -> RunResult:
        rt = self.runtime
        snapshot = rt.stats() if rt is not None else None
        stats = snapshot if snapshot is not None else RuntimeStats()
        fields: Dict[str, Any] = {"fault_stats": dict(stats.faults or {})}
        fields.update(self.outcome(stats))
        return self.RESULT(
            config=self.config,
            series={series.name: series for series, _ in self._sampled},
            trace=self.trace,
            history=rt.history if rt is not None else RepairHistory(),
            stats=snapshot,
            **fields,
        )
