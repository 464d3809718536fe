"""The execution context shared by tactics, operators, and the DSL.

A :class:`RepairContext` extends the constraint-language
:class:`~repro.constraints.evaluator.EvalContext` with:

* the in-flight :class:`~repro.repair.transactions.ModelTransaction`;
* a **runtime view** — read-only queries against the running system
  (``findServer``, inter-entity bandwidth), used by preconditions and by
  operators to resolve their targets before committing;
* a list of :class:`RuntimeIntent` records, the operations the translator
  must replay on the running system once the repair commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.acme.system import ArchSystem
from repro.constraints.evaluator import EvalContext
from repro.repair.footprint import Footprint

__all__ = ["RuntimeIntent", "RuntimeView", "RepairContext"]


@dataclass(frozen=True)
class RuntimeIntent:
    """One deferred runtime operation, e.g. ``("moveClient", {...})``."""

    op: str
    args: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in sorted(self.args.items()))
        return f"{self.op}({args})"


class RuntimeView:
    """Read-only window onto the running system for repair-time queries.

    The default implementation wraps a :class:`GridApplication` and its
    environment manager; tests may substitute stubs.
    """

    def find_server(self, client_name: str, bw_thresh: float) -> Optional[str]:
        raise NotImplementedError

    def bandwidth_between(self, client_name: str, group_name: str) -> float:
        raise NotImplementedError


class AppRuntimeView(RuntimeView):
    """RuntimeView over the simulated grid application."""

    def __init__(self, env_manager) -> None:
        self.env = env_manager

    def find_server(self, client_name: str, bw_thresh: float) -> Optional[str]:
        return self.env.find_server(client_name, bw_thresh)

    def bandwidth_between(self, client_name: str, group_name: str) -> float:
        return self.env.app.bandwidth_between(client_name, group_name)


class RepairContext(EvalContext):
    """Evaluation context + transaction + runtime view + intents."""

    def __init__(
        self,
        system: ArchSystem,
        runtime: Optional[RuntimeView] = None,
        bindings: Optional[Dict[str, Any]] = None,
        functions: Optional[Dict[str, Callable[..., Any]]] = None,
        transaction=None,
    ):
        super().__init__(system, scope=None, bindings=bindings, functions=functions)
        self.runtime = runtime
        self.transaction = transaction
        #: engine-installed CircuitBreakerBank (None when breakers are off);
        #: consulted by Tactic.run so an open breaker reads as "not applicable"
        self.breakers = None
        #: scope of the violation this repair is serving (breaker key part)
        self.repair_scope: str = ""
        self.intents: List[RuntimeIntent] = []
        #: (tactic name, touched elements) per *applied* tactic, in
        #: application order — the per-tactic slice of the repair's write
        #: footprint (recorded by :meth:`repro.repair.tactic.Tactic.run`)
        self.tactic_footprints: List[Tuple[str, Footprint]] = []

    def intend(self, op: str, **args: Any) -> RuntimeIntent:
        """Record a runtime operation to execute after commit."""
        intent = RuntimeIntent(op, args)
        self.intents.append(intent)
        return intent

    def note_tactic_touch(self, tactic: str, footprint: Footprint) -> None:
        """Record the touched-element set of one applied tactic."""
        self.tactic_footprints.append((tactic, footprint))

    # -- savepoint integration (tactic-level rollback) ----------------------
    def mark(self) -> tuple:
        txn_mark = self.transaction.mark() if self.transaction is not None else 0
        return (txn_mark, len(self.intents), len(self.tactic_footprints))

    def rollback_to(self, mark: tuple) -> None:
        txn_mark, intents_len, footprints_len = mark
        if self.transaction is not None:
            self.transaction.rollback_to(txn_mark)
        del self.intents[intents_len:]
        del self.tactic_footprints[footprints_len:]
