"""Generator-based simulated processes.

A process body is a generator that yields :class:`~repro.sim.kernel.Event`
objects; the process sleeps until the yielded event triggers, then resumes
with the event's value (or the event's exception raised at the yield point).

Processes are themselves events: they trigger when the body returns, with
the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Event, Simulator

__all__ = ["Process", "Interrupted"]


class Interrupted(Exception):
    """Raised inside a process when another party interrupts it.

    Carries ``cause`` so the interrupted code can decide how to react
    (e.g. a server told to deactivate mid-wait).
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class Process(Event):
    """A running simulated activity wrapping a generator.

    The first step of the body runs via the scheduler (never synchronously
    inside the constructor), so creation order never reorders side effects
    within the same instant unfairly.
    """

    __slots__ = ("name", "_gen", "_waiting_on", "_started", "_finished")

    def __init__(
        self, sim: Simulator, body: Generator[Event, Any, Any], name: str = "proc"
    ):
        if not hasattr(body, "send"):
            raise TypeError(
                f"Process body must be a generator, got {type(body).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(sim)
        self.name = name
        self._gen = body
        self._waiting_on: Optional[Event] = None
        self._started = False
        self._finished = False
        sim.schedule(0.0, self._resume, None, None)

    # -- state -------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self._finished

    # -- control -----------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its yield point.

        No-op on finished processes.  The event the process was waiting on
        remains pending; a process that survives the interrupt must not
        assume that wait completed.
        """
        if self._finished:
            return
        if not self._started:
            # Interrupt before first step: cancel the body outright.
            self._finish_with_exception(Interrupted(cause))
            return
        waiting, self._waiting_on = self._waiting_on, None
        if waiting is None:
            raise SimulationError(
                "cannot interrupt a process that is currently running"
            )
        self.sim.schedule(0.0, self._throw, Interrupted(cause))

    def kill(self) -> None:
        """Terminate the process without running any more of its body."""
        if self._finished:
            return
        self._finished = True
        self._waiting_on = None
        self._gen.close()
        if not self.triggered:
            self.succeed(None)

    # -- engine ------------------------------------------------------------
    def _resume(self, event: Optional[Event], _unused: Any) -> None:
        if self._finished:
            return
        self._started = True
        self._waiting_on = None
        try:
            if event is None:
                target = self._gen.send(None)
            elif event.ok:
                target = self._gen.send(event.value)
            else:
                target = self._gen.throw(event.value)
        except StopIteration as stop:
            self._finish_with_value(stop.value)
            return
        except Interrupted as exc:
            self._finish_with_exception(exc)
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        if self._finished:
            return
        try:
            target = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish_with_value(stop.value)
            return
        except Interrupted as unhandled:
            self._finish_with_exception(unhandled)
            return
        self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}; "
                "processes may only yield Event instances"
            )
        if target.sim is not self.sim:
            raise SimulationError("process yielded an event from another simulator")
        self._waiting_on = target
        target.add_callback(self._on_wakeup)

    def _on_wakeup(self, event: Event) -> None:
        # Ignore stale wakeups from events we stopped waiting on (interrupt).
        if self._waiting_on is not event:
            return
        self._resume(event, None)

    def _finish_with_value(self, value: Any) -> None:
        self._finished = True
        self.succeed(value)

    def _finish_with_exception(self, exc: BaseException) -> None:
        self._finished = True
        # An unhandled Interrupted terminates the process quietly; any
        # waiter sees the interrupt cause as the failure.
        self.fail(exc)
