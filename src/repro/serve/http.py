"""The socket half of ``repro serve``: stdlib HTTP around a ServeApp.

A ``ThreadingHTTPServer`` whose handler does exactly three things —
parse the body, call :meth:`~repro.serve.app.ServeApp.handle`, write
the JSON — plus clean shutdown: SIGTERM/SIGINT both stop the accept
loop, so a supervising process (or CI's ``timeout`` wrapper) gets exit
code 0 and no orphaned listeners.  No third-party dependency, nothing
async; concurrency is one thread per request, which is plenty for an
inspection surface.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve.app import ServeApp

__all__ = ["ReproHTTPServer", "run_server"]

#: largest request body the handler reads; a ``/run`` config or an
#: ``/ingest`` sample is a few hundred bytes
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the serve layer is quiet; CI greps stdout for JSON only

    def _dispatch(self) -> None:
        app: ServeApp = self.server.serve_app  # type: ignore[attr-defined]
        body = None
        declared = (self.headers.get("Content-Length") or "0").strip()
        # ASCII digits only: int() alone also takes a sign or "1_0".  A
        # request refused unread leaves its body on the socket, so the
        # connection cannot carry another one
        if not (declared.isascii() and declared.isdigit()):
            self._reply(400, {"error": "malformed Content-Length"}, close=True)
            return
        length = int(declared)
        if length > MAX_BODY_BYTES:
            error = f"request body over {MAX_BODY_BYTES} bytes"
            self._reply(413, {"error": error}, close=True)
            return
        raw = self.rfile.read(length) if length > 0 else b""
        if raw:
            try:
                body = json.loads(raw)
            except ValueError:
                self._reply(400, {"error": "request body is not valid JSON"})
                return
        try:
            status, payload = app.handle(self.command, self.path, body)
        except Exception as exc:  # a route bug must not kill the server
            status, payload = 500, {"error": f"internal error: {exc!r}"}
        self._reply(status, payload)

    def _reply(self, status: int, payload: dict, close: bool = False) -> None:
        data = json.dumps(payload, allow_nan=False, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)

    do_GET = _dispatch
    do_POST = _dispatch


class ReproHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer bound to one :class:`ServeApp`."""

    daemon_threads = True

    def __init__(self, host: str, port: int, app: ServeApp):
        super().__init__((host, port), _Handler)
        self.serve_app = app

    @property
    def bound_port(self) -> int:
        return self.server_address[1]


def run_server(
    host: str,
    port: int,
    app: ServeApp,
    out=None,
    ready: Optional[threading.Event] = None,
    install_signals: bool = True,
) -> int:
    """Serve until SIGTERM/SIGINT (or ``server.shutdown()``); returns 0.

    ``ready`` (for tests) fires once the socket is bound and the accept
    loop is about to start; ``install_signals=False`` skips handler
    installation for callers not on the main thread.
    """
    server = ReproHTTPServer(host, port, app)
    if install_signals:

        def _stop(signum, frame) -> None:
            # shutdown() must not run on the serve_forever thread; it
            # joins the accept loop, so hop to a helper thread
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    if out is not None:
        print(
            json.dumps({"serving": True, "host": host, "port": server.bound_port}),
            file=out,
            flush=True,
        )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    return 0
