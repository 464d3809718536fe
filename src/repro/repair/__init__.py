"""Repair machinery (substrates S9/S10): strategies, tactics, transactions,
the Figure 5 repair DSL, and the architecture manager that runs them.

Flow (paper §3.2): a constraint violation triggers a **repair strategy**; a
strategy tries precondition-guarded **tactics**; tactic scripts invoke
style **operators** that edit the architectural model *inside a
transaction* and record **runtime intents**; on ``commit repair`` the
intents are handed to the translator for execution against the running
system; on ``abort`` (or tactic failure) the model edits roll back.
"""

from repro.repair.context import RepairContext, RuntimeIntent
from repro.repair.footprint import Footprint
from repro.repair.transactions import ModelTransaction
from repro.repair.tactic import Tactic, PythonTactic
from repro.repair.strategy import (
    RepairOutcome,
    RepairStrategy,
    PythonStrategy,
    FirstSuccessStrategy,
)
from repro.repair.engine import ArchitectureManager, RepairRecord
from repro.repair.history import RepairHistory
from repro.repair.resilience import (
    BreakerPolicy,
    CircuitBreakerBank,
    QuarantinePolicy,
    RetryPolicy,
)
from repro.repair.sharding import ShardCoordinator
from repro.repair.dsl import parse_repair_dsl, DslStrategy, DslTactic

__all__ = [
    "ShardCoordinator",
    "RepairContext",
    "RuntimeIntent",
    "Footprint",
    "ModelTransaction",
    "Tactic",
    "PythonTactic",
    "RepairOutcome",
    "RepairStrategy",
    "PythonStrategy",
    "FirstSuccessStrategy",
    "ArchitectureManager",
    "RepairRecord",
    "RepairHistory",
    "RetryPolicy",
    "BreakerPolicy",
    "QuarantinePolicy",
    "CircuitBreakerBank",
    "parse_repair_dsl",
    "DslStrategy",
    "DslTactic",
]
