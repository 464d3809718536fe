"""A simulated batch-pipeline application (runtime layer).

The counterpart of :class:`~repro.app.system.GridApplication` for the
:mod:`repro.styles.pipeline` style: a linear chain of filter stages, each
with a bounded worker pool (``width``) and a FIFO backlog.  Items enter at
the first stage, are processed for ``service_time`` seconds by one worker,
and flow downstream; the last stage completes them.

The one runtime *change* operator the style needs is :meth:`set_width` —
the equivalent of Table 1's ``activateServer`` for this application —
which the pipeline translator invokes when a ``widenStage``/``narrowStage``
intent commits.  Widening pumps the backlog immediately; narrowing lets
excess in-flight work drain naturally.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import EnvironmentError_
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace

__all__ = ["PipelineStageRuntime", "PipelineApplication"]


class PipelineStageRuntime:
    """One filter stage: a worker pool draining a FIFO backlog."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        width: int,
        service_time: float,
    ):
        if width < 1:
            raise EnvironmentError_(f"stage {name}: width must be >= 1")
        if service_time <= 0:
            raise EnvironmentError_(f"stage {name}: service_time must be positive")
        self.sim = sim
        self.name = name
        self.width = int(width)
        self.service_time = float(service_time)
        self.queue: Deque[int] = deque()
        self.busy = 0
        self.processed = 0
        self.downstream: Optional["PipelineStageRuntime"] = None
        self._complete = None  # set on the final stage by the application

    @property
    def backlog(self) -> int:
        """Items waiting (not counting those being processed)."""
        return len(self.queue)

    @property
    def service_rate(self) -> float:
        """Current drain capacity, items/second."""
        return self.width / self.service_time

    def accept(self, item: int) -> None:
        self.queue.append(item)
        self._pump()

    def set_width(self, width: int) -> None:
        if width < 1:
            raise EnvironmentError_(f"stage {self.name}: width must be >= 1")
        self.width = int(width)
        self._pump()  # widening frees capacity for queued items right now

    def _pump(self) -> None:
        while self.busy < self.width and self.queue:
            item = self.queue.popleft()
            self.busy += 1
            self.sim.schedule(self.service_time, self._finish, item)

    def _finish(self, item: int) -> None:
        self.busy -= 1
        self.processed += 1
        if self.downstream is not None:
            self.downstream.accept(item)
        elif self._complete is not None:
            self._complete(item)
        self._pump()


class PipelineApplication:
    """A linear pipeline of stages plus issue/completion bookkeeping."""

    def __init__(
        self,
        sim: Simulator,
        stages: Sequence[Tuple[str, int, float]],
        trace: Optional[Trace] = None,
    ):
        if len(stages) < 2:
            raise EnvironmentError_("a pipeline needs at least two stages")
        self.sim = sim
        self.trace = trace if trace is not None else Trace()
        self._stages: Dict[str, PipelineStageRuntime] = {}
        self.stage_order: List[str] = []
        previous: Optional[PipelineStageRuntime] = None
        for name, width, service_time in stages:
            if name in self._stages:
                raise EnvironmentError_(f"duplicate stage {name}")
            stage = PipelineStageRuntime(sim, name, width, service_time)
            self._stages[name] = stage
            self.stage_order.append(name)
            if previous is not None:
                previous.downstream = stage
            previous = stage
        assert previous is not None
        previous._complete = self._on_complete
        self.issued = 0
        self.completed = 0
        self._next_item = 0

    # -- item flow ---------------------------------------------------------
    def submit(self) -> int:
        """Inject one item at the head of the pipeline."""
        self._next_item += 1
        self.issued += 1
        self._stages[self.stage_order[0]].accept(self._next_item)
        return self._next_item

    def _on_complete(self, item: int) -> None:
        self.completed += 1

    # -- queries -----------------------------------------------------------
    def stage(self, name: str) -> PipelineStageRuntime:
        try:
            return self._stages[name]
        except KeyError:
            raise EnvironmentError_(f"no stage {name}") from None

    @property
    def stages(self) -> List[PipelineStageRuntime]:
        return [self._stages[n] for n in self.stage_order]

    def backlog(self, name: str) -> int:
        return self.stage(name).backlog

    @property
    def in_flight(self) -> int:
        """Items inside the pipeline (queued or being processed)."""
        return self.issued - self.completed

    # -- runtime change operator (the pipeline's Table 1) ------------------
    def set_width(self, name: str, width: int) -> int:
        """Resize a stage's worker pool; returns the old width."""
        stage = self.stage(name)
        old = stage.width
        stage.set_width(width)
        self.trace.emit(
            self.sim.now, "runtime.op.setStageWidth",
            stage=name, frm=old, to=stage.width,
        )
        return old
