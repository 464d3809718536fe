"""The serve layer's request logic, free of any socket machinery.

:class:`ServeApp` maps ``(method, path, body)`` to ``(status code,
JSON-ready payload)``.  Keeping it a plain object does two jobs: the
endpoint contract tests drive it directly (no ports, no threads, no
flakiness), and the HTTP wrapper in :mod:`repro.serve.http` stays a
dumb pipe.

Stats and history resolve through a precedence chain so the same
endpoints work in every deployment shape:

1. an attached :class:`~repro.realtime.driver.RealtimeDriver` (live
   adaptation — counters move in wall time);
2. an attached never-started :class:`~repro.runtime.core.AdaptationRuntime`
   (a scenario's control plane built for inspection — all-zero
   counters with the full section shape);
3. the most recent ``POST /run`` result;
4. an empty :class:`~repro.runtime.stats.RuntimeStats`.

Every payload passes ``json.dumps(..., allow_nan=False)`` — the strict
JSON contract the stats plane already guarantees.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.errors import ReproError
from repro.realtime.clock import Clock, WallClock
from repro.realtime.driver import RealtimeDriver
from repro.runtime.core import AdaptationRuntime
from repro.runtime.stats import RuntimeStats

__all__ = ["ServeApp"]

Response = Tuple[int, Dict[str, Any]]


class ServeApp:
    """Routes serve-layer requests; holds no sockets, spawns no threads."""

    def __init__(
        self,
        driver: Optional[RealtimeDriver] = None,
        runtime: Optional[AdaptationRuntime] = None,
        clock: Optional[Clock] = None,
    ):
        self.driver = driver
        self.runtime = runtime
        self.clock = clock if clock is not None else WallClock()
        self.run_count = 0
        self.last_result: Optional[api.RunResult] = None

    # -- dispatch ----------------------------------------------------------
    def handle(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Response:
        """One request in, ``(status, payload)`` out.  Never raises."""
        path = path.rstrip("/") or "/"
        routes = {
            "/health": ("GET", self._health),
            "/stats": ("GET", self._stats),
            "/repair-history": ("GET", self._repair_history),
            "/run": ("POST", self._run),
            "/ingest": ("POST", self._ingest),
        }
        if path not in routes:
            return 404, {"error": f"no such endpoint: {path}"}
        expected, endpoint = routes[path]
        if method != expected:
            return 405, {"error": f"{path} only answers {expected}"}
        if expected == "POST":
            if body is None or not isinstance(body, dict):
                return 400, {"error": f"{path} needs a JSON object body"}
            return endpoint(body)
        return endpoint()

    # -- endpoints ---------------------------------------------------------
    def _health(self) -> Response:
        """200 ``ok``; 503 ``degraded`` with the exception once an attached
        driver's loop thread has died of one."""
        error = self.driver.error if self.driver is not None else None
        payload: Dict[str, Any] = {
            "status": "ok" if error is None else "degraded",
            "uptime_s": round(self.clock.elapsed(), 3),
            "driver_attached": self.driver is not None,
            "runtime_attached": self.runtime is not None,
            "runs": self.run_count,
        }
        if error is None:
            return 200, payload
        payload["error"] = f"{type(error).__name__}: {error}"
        return 503, payload

    def _current_stats(self) -> RuntimeStats:
        if self.driver is not None:
            return self.driver.stats()
        if self.runtime is not None:
            return self.runtime.stats()
        if self.last_result is not None and self.last_result.stats is not None:
            return self.last_result.stats
        return RuntimeStats()

    def _stats(self) -> Response:
        return 200, self._current_stats().to_dict()

    def _history_records(self) -> List[Dict[str, Any]]:
        if self.driver is not None:
            history = self.driver.history
        elif self.runtime is not None:
            history = self.runtime.history
        elif self.last_result is not None:
            return self.last_result.history_dicts()
        else:
            return []
        return [record.as_dict() for record in history]

    def _repair_history(self) -> Response:
        records = self._history_records()
        return 200, {"count": len(records), "records": records}

    def _run(self, body: Dict[str, Any]) -> Response:
        scenario = body.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            return 400, {"error": "/run needs a scenario name"}
        try:
            config = api.make_config(
                scenario=scenario,
                adaptation=bool(body.get("adaptation", True)),
                seed=int(body.get("seed", 2002)),
                fast=bool(body.get("fast", True)),
                overrides=body.get("set") or None,
            )
            result = api.run(config)
        except (ReproError, TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        self.run_count += 1
        self.last_result = result
        return 200, {"summary": result.summary()}

    def _ingest(self, body: Dict[str, Any]) -> Response:
        if self.driver is None:
            return 409, {"error": "no realtime driver attached"}
        kind, target = body.get("kind"), body.get("target")
        if not isinstance(kind, str) or not isinstance(target, str):
            return 400, {"error": "/ingest needs string kind and target"}
        try:
            value = float(body["value"])
        except (KeyError, TypeError, ValueError):
            return 400, {"error": "/ingest needs a numeric value"}
        try:
            self.driver.ingest(kind, target, value)
        except (KeyError, ValueError) as exc:  # unknown probe / "nan", 1e999
            return 400, {"error": str(exc)}
        return 200, {"ingested": True, "total": self.driver.ingested}
