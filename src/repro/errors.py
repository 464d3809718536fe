"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this library derive from :class:`ReproError` so
applications can catch library failures with a single handler while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ProcessKilled",
    "NetworkError",
    "NoRouteError",
    "ModelError",
    "DuplicateElementError",
    "UnknownElementError",
    "TypeViolationError",
    "AttachmentError",
    "PropertyError",
    "ParseError",
    "ConstraintError",
    "EvaluationError",
    "RepairError",
    "TacticFailure",
    "RepairAborted",
    "TransactionError",
    "TranslationError",
    "MonitoringError",
    "GaugeError",
    "ProbeError",
    "EnvironmentError_",
    "WorkloadError",
    "AnalysisError",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# --------------------------------------------------------------------------
# Runtime layer
# --------------------------------------------------------------------------

class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly (e.g. time travel)."""


class ProcessKilled(ReproError):
    """Raised *inside* a simulated process when it is forcibly terminated."""


class NetworkError(ReproError):
    """Generic network-model failure."""


class NoRouteError(NetworkError):
    """No path exists between the requested endpoints."""


class EnvironmentError_(ReproError):
    """An environment-manager operation (Table 1) failed.

    Named with a trailing underscore to avoid shadowing the (deprecated)
    builtin ``EnvironmentError`` alias of ``OSError``.
    """


class WorkloadError(ReproError):
    """A workload schedule is malformed (overlapping/negative phases...)."""


# --------------------------------------------------------------------------
# Model layer
# --------------------------------------------------------------------------

class ModelError(ReproError):
    """Architectural model inconsistency (the paper's ``abort ModelError``)."""


class DuplicateElementError(ModelError):
    """An element with the same name already exists in its scope."""


class UnknownElementError(ModelError):
    """Lookup of a component/connector/port/role/property failed."""


class TypeViolationError(ModelError):
    """An element does not satisfy its declared architectural type."""


class AttachmentError(ModelError):
    """Invalid attachment (unknown port/role, double attachment...)."""


class PropertyError(ModelError):
    """Property access or typing failure."""


class ParseError(ReproError):
    """Lexing/parsing failure in the Acme, constraint, or repair languages.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    available.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.bare_message = message
        self.line = line
        self.column = column


class ConstraintError(ReproError):
    """A constraint definition is invalid (not a boolean expression...)."""


class EvaluationError(ConstraintError):
    """Evaluating a constraint or repair expression failed at runtime."""


# --------------------------------------------------------------------------
# Repair machinery
# --------------------------------------------------------------------------

class RepairError(ReproError):
    """Base class for repair-engine failures."""


class TacticFailure(RepairError):
    """A tactic's script failed; the enclosing strategy may try another."""


class RepairAborted(RepairError):
    """A repair script executed ``abort <reason>`` (Figure 5 semantics)."""

    def __init__(self, reason: str = "ModelError"):
        super().__init__(f"repair aborted: {reason}")
        self.reason = reason


class TransactionError(RepairError):
    """Transactional model editing misuse (nested commit, no txn...)."""


class TranslationError(ReproError):
    """The translator could not map a model operator to runtime operations."""


# --------------------------------------------------------------------------
# Monitoring
# --------------------------------------------------------------------------

class MonitoringError(ReproError):
    """Base class for probe/gauge infrastructure failures."""


class GaugeError(MonitoringError):
    """Gauge lifecycle/protocol violation."""


class ProbeError(MonitoringError):
    """Probe deployment or reporting failure."""


class AnalysisError(ReproError):
    """Queuing-analysis input is invalid (unstable system, rho >= 1...)."""
