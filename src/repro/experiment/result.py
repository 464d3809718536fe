"""The scenario-neutral run result.

:class:`RunResult` is what every scenario's ``run()`` returns: the
structured sections any experiment produces (sampled time series, the
trace, the repair history, throughput totals, and the bus / gauge /
constraint counters the :class:`~repro.runtime.core.AdaptationRuntime`
exposes), plus ``summary()`` / ``to_json()`` for reporting and the CLI.

Scenario-specific accessors live on subclasses — e.g. the client/server
result's ``clients`` list (parsed from its ``latency.C*`` series) is on
:class:`ClientServerResult`, so a pipeline or master/worker result never
grows a vestigial client list.  Scenarios registered downstream may
subclass :class:`RunResult` too and extend :meth:`extras`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiment.config import RunConfig
from repro.experiment.series import TimeSeries
from repro.repair.history import RepairHistory
from repro.runtime.stats import RuntimeStats
from repro.sim.trace import Trace

__all__ = ["RunResult", "ClientServerResult", "PipelineResult"]


def _json_clean(value: Any) -> Any:
    """Make a summary strictly JSON-serializable (no NaN, no numpy)."""
    if isinstance(value, dict):
        return {str(k): _json_clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_clean(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float):
        return None if math.isnan(value) or math.isinf(value) else value
    return str(value)


@dataclass
class RunResult:
    """Everything a bench, test, or the CLI needs from one finished run."""

    config: RunConfig
    series: Dict[str, TimeSeries]
    trace: Trace
    history: RepairHistory
    issued: int
    completed: int
    dropped: int = 0
    #: fault-plane injection counters; {} on runs without a fault plane.
    #: Not a view of ``stats``: a control run has no runtime, and its
    #: outage plane's counters live only here
    fault_stats: Dict[str, Any] = field(default_factory=dict)
    #: the runtime's full typed counter snapshot (None on control runs
    #: that never built a runtime)
    stats: Optional[RuntimeStats] = None

    # -- structured access ---------------------------------------------------
    def s(self, name: str) -> TimeSeries:
        try:
            return self.series[name]
        except KeyError:
            raise KeyError(
                f"no series {name!r}; available: {sorted(self.series)}"
            ) from None

    def repair_intervals(self) -> List[Tuple[float, float]]:
        """(start, end) of every repair (the marks atop Figures 11-13).

        One interval per ended history record — each retry attempt and
        each of several overlapping repairs is its own — sorted by start.
        """
        return sorted(
            (r.started, r.ended) for r in self.history if r.ended is not None
        )

    def history_dicts(self) -> List[Dict[str, Any]]:
        """The repair history as JSON-ready dicts (``/repair-history``)."""
        return [record.as_dict() for record in self.history]

    # -- reporting -----------------------------------------------------------
    def extras(self) -> Dict[str, Any]:
        """Scenario-specific scalars for :meth:`summary` (subclass hook)."""
        return {}

    def _series_summary(self) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self.series):
            ts = self.series[name]
            values = ts.values
            finite = values[~(values != values)]  # drop NaN
            out[name] = {
                "samples": len(ts),
                "last": float(values[-1]) if len(values) else None,
                "min": float(finite.min()) if finite.size else None,
                "max": float(finite.max()) if finite.size else None,
                "mean": float(finite.mean()) if finite.size else None,
            }
        return out

    def summary(self) -> Dict[str, Any]:
        """One JSON-serializable dict describing the run."""
        config = self.config
        stats = self.stats if self.stats is not None else RuntimeStats()
        intervals = self.repair_intervals()
        params = config.params
        data: Dict[str, Any] = {
            "scenario": config.scenario,
            "name": config.name,
            "seed": config.seed,
            "horizon": config.horizon,
            "adaptation": config.adaptation,
            "params_type": type(params).__name__ if params is not None else None,
            "params": params.to_dict() if params is not None else {},
            "issued": self.issued,
            "completed": self.completed,
            "dropped": self.dropped,
            "repairs": {
                "total": len(self.history),
                "committed": len(self.history.committed),
                "aborted": len(self.history.aborted),
                "mean_duration": self.history.mean_duration(),
                "intervals": [[a, b] for a, b in intervals],
            },
            "series": self._series_summary(),
            "counters": {
                "bus": dict(stats.bus),
                "gauges": dict(stats.gauges),
                "constraints": dict(stats.constraints),
                "telemetry": dict(stats.telemetry),
            },
        }
        if self.fault_stats:
            data["counters"]["faults"] = dict(self.fault_stats)
        if stats.shards:
            data["counters"]["shards"] = [shard.to_dict() for shard in stats.shards]
        extras = self.extras()
        if extras:
            data["details"] = extras
        return _json_clean(data)

    def to_json(self, indent: int = None, include_series: bool = False) -> str:
        """The summary as JSON; ``include_series`` adds full sample data."""
        data = self.summary()
        if include_series:
            data["series_data"] = {
                name: {
                    "times": [float(t) for t in ts.times],
                    "values": _json_clean([float(v) for v in ts.values]),
                }
                for name, ts in sorted(self.series.items())
            }
        return json.dumps(data, indent=indent, allow_nan=False)


@dataclass
class ClientServerResult(RunResult):
    """The paper's client/server run, plus its scenario-specific views."""

    remos_stats: Any = None

    @property
    def clients(self) -> List[str]:
        """Client names, parsed from the ``latency.C*`` series."""
        return sorted(
            n.split(".", 1)[1] for n in self.series if n.startswith("latency.")
        )

    def extras(self) -> Dict[str, Any]:
        extras: Dict[str, Any] = {"clients": self.clients}
        if self.remos_stats is not None:
            stats = self.remos_stats
            extras["remos"] = dict(getattr(stats, "__dict__", None) or {}) or stats
        return extras


@dataclass
class PipelineResult(RunResult):
    """The batch-pipeline run, plus its stage-oriented views."""

    @property
    def stages(self) -> List[str]:
        """Stage names, parsed from the ``width.*`` series."""
        return sorted(
            n.split(".", 1)[1] for n in self.series if n.startswith("width.")
        )

    def extras(self) -> Dict[str, Any]:
        return {
            "stages": self.stages,
            "final_widths": {
                stage: float(self.s(f"width.{stage}").values[-1])
                for stage in self.stages
            },
        }
