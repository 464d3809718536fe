"""The contract between the adaptation runtime and a managed application.

The paper's central engineering claim is that the adaptation machinery is
"independent of any particular application".  :class:`ManagedApplication`
is that independence made concrete: it is everything the control plane
needs to know about the thing it adapts.  An application (real or
simulated) is wrapped by implementing three methods:

* :meth:`architecture` — an :class:`~repro.acme.system.ArchSystem`
  mirroring the application's *current* runtime configuration, typed by
  the style family the :class:`~repro.runtime.spec.AdaptationSpec` names;
* :meth:`intent_executor` — the translator that replays committed model
  intents onto the running system (charging whatever communication costs
  apply);
* :meth:`runtime_view` — optional read-only queries repairs may issue
  against the running system before committing (may return None when the
  style's operators never consult the runtime).

Everything else — buses, probes, gauges, constraint checking, repair
dispatch, translation scheduling — is owned by
:class:`~repro.runtime.core.AdaptationRuntime` and configured
declaratively through the spec.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, FrozenSet, Optional

from repro.acme.system import ArchSystem
from repro.repair.context import RuntimeView

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plane import FaultPlane
    from repro.runtime.core import AdaptationRuntime

__all__ = ["IntentExecutor", "ManagedApplication"]


class IntentExecutor(abc.ABC):
    """Replays committed :class:`~repro.repair.context.RuntimeIntent` lists.

    The architecture manager hands a committed repair's intents to
    ``execute`` and continues once ``on_done`` fires — the executor is
    free to spread the work over simulated time (the paper's ~30 s repair
    duration lives here).  Every shipped application uses
    :class:`~repro.translation.IntentTranslator` over its intent table
    (``op -> IntentRow(cost, apply)``).

    ``INTENT_OPS`` declares the intent ``op`` names the executor can
    replay (an intent table's keys); ``repro lint``'s wiring audit
    (WIR403) checks every op the spec's style operators emit against it.
    ``None`` (the default) means "undeclared" and exempts the executor
    from the audit.
    """

    INTENT_OPS: Optional[FrozenSet[str]] = None

    @abc.abstractmethod
    def execute(self, intents, on_done=None):
        """Apply ``intents`` in order; invoke ``on_done()`` when finished."""


class ManagedApplication(abc.ABC):
    """Adapter making one application adaptable by an AdaptationRuntime."""

    @abc.abstractmethod
    def architecture(self) -> ArchSystem:
        """Architectural model of the current runtime configuration.

        Component/connector names must match their runtime counterparts
        (the translator maps committed intents onto runtime operations by
        name, mirroring the paper's model/runtime naming convention).
        """

    @abc.abstractmethod
    def intent_executor(self, runtime: "AdaptationRuntime") -> IntentExecutor:
        """Build the translator that applies committed intents.

        Receives the runtime so executors can reach shared services —
        most importantly ``runtime.gauge_manager`` for redeployment
        windows (the monitoring blind spot during repairs).
        """

    def runtime_view(self) -> Optional[RuntimeView]:
        """Read-only repair-time queries; None when operators need none."""
        return None

    def bind_faults(self, plane: "FaultPlane") -> None:
        """Register crashable components on the fault plane.

        Called by the runtime only when its spec carries an active
        :class:`~repro.faults.spec.FaultSpec`.  The default binds
        nothing — applications that support component outages override
        this with ``plane.bind_component(name, on_fail, on_recover)``
        calls for each crashable entity.
        """
