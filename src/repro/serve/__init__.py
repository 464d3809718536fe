"""``repro serve``: the control plane's HTTP front door.

A thin, dependency-free service layer (stdlib ``http.server`` only)
exposing the repro over four endpoints:

* ``GET /health`` — liveness: uptime, whether a runtime/driver is
  attached, how many runs have completed; 503 ``degraded``, with the
  exception, once an attached driver's loop thread has died of one;
* ``GET /stats`` — the current
  :class:`~repro.runtime.stats.RuntimeStats` snapshot as strict JSON;
* ``GET /repair-history`` — the repair records
  (:meth:`~repro.repair.history.RepairRecord.as_dict` shape);
* ``POST /run`` — execute a registered scenario synchronously and
  return its summary;
* ``POST /ingest`` — push one external telemetry sample into an
  attached realtime driver's bus-ingested probe.

The request logic lives in :class:`~repro.serve.app.ServeApp`, a pure
``(method, path, body) -> (status, payload)`` object with no sockets —
that is what the contract tests exercise.  :mod:`repro.serve.http`
wraps it in a ``ThreadingHTTPServer`` with clean SIGTERM/SIGINT
shutdown.  See docs/serving.md.
"""

from repro.serve.app import ServeApp
from repro.serve.http import ReproHTTPServer, run_server

__all__ = ["ServeApp", "ReproHTTPServer", "run_server"]
