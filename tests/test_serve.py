"""The serve layer's endpoint contracts (X10).

These tests drive :class:`ServeApp.handle` directly — no sockets, no
threads — against a *built-but-never-started* scenario runtime, which
is exactly the shape ``repro serve --scenario`` deploys: the control
plane exists (so ``/stats`` has real sections and ``/repair-history``
a real history object) but no event has ever run.  A thin second group
covers the HTTP wrapper end to end on a loopback port, including the
strict-JSON guarantee and clean shutdown.
"""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.experiment.scenarios import scenario_builder
from repro.realtime import FakeClock, RealtimeDriver
from repro.realtime.demo import (
    LivePoolManagedApplication,
    build_live_pool_spec,
)
from repro.serve.app import ServeApp
from repro.serve.http import MAX_BODY_BYTES, ReproHTTPServer


def _strict_json_roundtrip(payload):
    """Encode with allow_nan=False (the serve wire format) and decode."""
    return json.loads(json.dumps(payload, allow_nan=False, sort_keys=True))


@pytest.fixture(scope="module")
def built_runtime():
    config = api.make_config("master_worker", fast=True)
    return scenario_builder("master_worker")(config).build()


@pytest.fixture()
def app(built_runtime):
    return ServeApp(runtime=built_runtime, clock=FakeClock())


class TestServeContracts:
    def test_health_reports_attachment_and_uptime(self, app):
        status, payload = app.handle("GET", "/health")
        assert status == 200
        body = _strict_json_roundtrip(payload)
        assert body["status"] == "ok"
        assert body["runtime_attached"] is True
        assert body["driver_attached"] is False
        assert body["runs"] == 0
        assert body["uptime_s"] >= 0

    def test_stats_serves_full_shape_with_zero_counters(self, app):
        status, payload = app.handle("GET", "/stats")
        assert status == 200
        body = _strict_json_roundtrip(payload)
        for section in ("bus", "gauges", "constraints", "repairs", "telemetry"):
            assert section in body, f"missing stats section {section!r}"
        # built but never started: nothing may have moved
        assert body["bus"].get("probe_published", 0) == 0
        assert body["repairs"].get("evaluations", 0) == 0

    def test_repair_history_is_empty_before_any_event(self, app):
        status, payload = app.handle("GET", "/repair-history")
        assert status == 200
        body = _strict_json_roundtrip(payload)
        assert body == {"count": 0, "records": []}

    def test_trailing_slash_is_tolerated(self, app):
        assert app.handle("GET", "/health/")[0] == 200

    def test_unknown_path_404(self, app):
        status, payload = app.handle("GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_wrong_method_405(self, app):
        assert app.handle("POST", "/stats", {})[0] == 405
        assert app.handle("GET", "/run")[0] == 405

    def test_post_without_body_400(self, app):
        status, payload = app.handle("POST", "/run", None)
        assert status == 400
        assert "error" in payload

    def test_run_unknown_scenario_400(self, app):
        status, payload = app.handle("POST", "/run", {"scenario": "nope"})
        assert status == 400
        assert "nope" in payload["error"]

    def test_run_missing_scenario_400(self, app):
        assert app.handle("POST", "/run", {})[0] == 400

    def test_ingest_without_driver_409(self, app):
        body = {"kind": "latency", "target": "pool", "value": 0.5}
        assert app.handle("POST", "/ingest", body)[0] == 409


class TestServeRunAndIngest:
    def test_run_executes_and_feeds_stats_precedence(self):
        app = ServeApp(clock=FakeClock())
        status, payload = app.handle(
            "POST",
            "/run",
            {"scenario": "master_worker", "fast": True, "set": {"horizon": 60}},
        )
        assert status == 200
        summary = _strict_json_roundtrip(payload)["summary"]
        assert summary["scenario"] == "master_worker"
        assert app.run_count == 1
        # with no runtime attached, /stats now serves the run's snapshot
        status, stats = app.handle("GET", "/stats")
        assert status == 200
        assert stats["bus"].get("probe_published", 0) > 0
        status, history = app.handle("GET", "/repair-history")
        assert status == 200
        assert history["count"] == len(history["records"])

    @staticmethod
    def _pool_driver():
        from tests.test_realtime import ScriptedPoolApp

        pool = ScriptedPoolApp()
        return RealtimeDriver(
            LivePoolManagedApplication(pool, min_workers=2),
            build_live_pool_spec(pool),
            clock=FakeClock(),
        )

    def test_ingest_reaches_an_attached_driver(self):
        app = ServeApp(driver=self._pool_driver(), clock=FakeClock())
        body = {"kind": "latency", "target": "pool", "value": 0.25}
        status, payload = app.handle("POST", "/ingest", body)
        assert status == 200
        assert payload == {"ingested": True, "total": 1}
        bad = {"kind": "nope", "target": "pool", "value": 1.0}
        assert app.handle("POST", "/ingest", bad)[0] == 400
        assert app.handle("POST", "/ingest", {"kind": "latency"})[0] == 400

    @pytest.mark.parametrize("value", ["nan", "NaN", "-inf", float("inf"), 1e999])
    def test_ingest_answers_400_to_a_non_finite_value(self, value):
        """``float()`` takes all of these; the daemon loop must never see
        them — it would die behind a 200 ``/health``."""
        driver = self._pool_driver()
        app = ServeApp(driver=driver, clock=FakeClock())
        body = {"kind": "latency", "target": "pool", "value": value}
        status, payload = app.handle("POST", "/ingest", body)
        assert status == 400
        assert "finite" in _strict_json_roundtrip(payload)["error"]
        assert driver.ingested == 0
        driver.run_until(2.0)  # nothing crossed the seam

    def test_health_is_degraded_once_the_loop_thread_raised(self, monkeypatch):
        reported = []  # the thread's excepthook still sees the traceback
        monkeypatch.setattr(threading, "excepthook", reported.append)
        driver = self._pool_driver()
        app = ServeApp(driver=driver, clock=FakeClock())
        assert app.handle("GET", "/health")[0] == 200

        def boom():
            raise RuntimeError("effector wiring broke")

        driver.scheduler.call_soon_threadsafe(boom)
        driver.start()
        driver._thread.join(timeout=5.0)
        assert not driver._thread.is_alive()
        status, payload = app.handle("GET", "/health")
        assert status == 503
        body = _strict_json_roundtrip(payload)
        assert body["status"] == "degraded"
        assert body["error"] == "RuntimeError: effector wiring broke"
        assert [args.exc_value for args in reported] == [driver.error]
        driver.stop()

    def test_run_rejects_bad_override_types(self):
        app = ServeApp(clock=FakeClock())
        status, _ = app.handle(
            "POST",
            "/run",
            {"scenario": "master_worker", "set": {"no_such_field": 1}},
        )
        assert status == 400


class TestServeHTTP:
    @pytest.fixture()
    def server(self, built_runtime):
        app = ServeApp(runtime=built_runtime, clock=FakeClock())
        server = ReproHTTPServer("127.0.0.1", 0, app)
        # a short poll: shutdown() waits up to one poll interval
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def _get(self, server, path):
        url = f"http://127.0.0.1:{server.bound_port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_endpoints_answer_strict_json_over_the_wire(self, server):
        status, health = self._get(server, "/health")
        assert status == 200 and health["status"] == "ok"
        status, stats = self._get(server, "/stats")
        assert status == 200 and "telemetry" in stats
        status, history = self._get(server, "/repair-history")
        assert status == 200 and history["count"] == 0
        status, missing = self._get(server, "/missing")
        assert status == 404 and "error" in missing

    def test_malformed_body_is_a_clean_400(self, server):
        url = f"http://127.0.0.1:{server.bound_port}/run"
        request = urllib.request.Request(url, data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())

    def _post(self, server, content_length, body=b""):
        """POST /run with the Content-Length header as given, whatever
        the body sent; ``(status, payload)``."""
        conn = http.client.HTTPConnection("127.0.0.1", server.bound_port, timeout=10)
        try:
            conn.putrequest("POST", "/run")
            conn.putheader("Content-Length", content_length)
            conn.endheaders()
            conn.send(body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize("header", ["abc", "-1", "1_0", "+5"])
    def test_malformed_content_length_is_a_400_and_the_server_lives(
        self, server, header
    ):
        # int() on the handler thread used to raise ("abc": closed socket, no
        # reply) or accept what is not a length ("1_0", "+5")
        status, payload = self._post(server, header)
        assert status == 400 and "Content-Length" in payload["error"]
        assert self._get(server, "/health")[0] == 200

    def test_oversized_content_length_is_a_413_without_reading_the_body(self, server):
        # nothing is sent after the headers: a handler that tried to read
        # 99 999 999 999 bytes would sit there until this client timed out
        for declared in ("99999999999", str(MAX_BODY_BYTES + 1)):
            status, payload = self._post(server, declared)
            assert status == 413 and str(MAX_BODY_BYTES) in payload["error"]
            assert self._get(server, "/health")[0] == 200

    def test_a_body_exactly_at_the_cap_is_read_and_routed(self, server):
        body = json.dumps({"scenario": "no_such_scenario"}).encode()
        body += b" " * (MAX_BODY_BYTES - len(body))
        status, payload = self._post(server, str(len(body)), body)
        assert status == 400 and "no_such_scenario" in payload["error"]
        assert self._get(server, "/health")[0] == 200
