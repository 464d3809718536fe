"""Smoke tests for the ``python -m repro`` CLI.

Each command must exit 0 and, with ``--json``, emit strict valid JSON
(parseable, NaN-free).  Runs use short horizons so the whole module
stays inside a few simulated minutes.
"""

import io
import json

import pytest

from repro.cli import main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestListCommand:
    def test_text(self):
        code, text = _run(["list"])
        assert code == 0
        assert "client_server" in text and "master_worker" in text

    def test_json(self):
        code, text = _run(["list", "--json"])
        assert code == 0
        entries = {e["name"]: e for e in json.loads(text)}
        assert entries["pipeline"]["params_type"] == "PipelineParams"
        assert "burst_rate" in entries["pipeline"]["params"]


class TestRunCommand:
    def test_json_smoke(self):
        code, text = _run(
            ["run", "client_server", "--horizon", "60", "--json"]
        )
        assert code == 0
        data = json.loads(text)
        assert data["scenario"] == "client_server"
        assert data["issued"] > 0
        assert data["adaptation"] is True

    def test_control_flag_and_text_output(self):
        code, text = _run(
            ["run", "pipeline", "--horizon", "60", "--control"]
        )
        assert code == 0
        assert "pipeline/control" in text

    def test_set_overrides_params(self):
        code, text = _run([
            "run", "pipeline", "--horizon", "60", "--json",
            "--set", "burst_rate=4.0", "--set", "seed=7",
        ])
        assert code == 0
        assert json.loads(text)["seed"] == 7

    def test_series_payload(self):
        code, text = _run([
            "run", "pipeline", "--horizon", "60", "--json", "--series",
        ])
        assert code == 0
        data = json.loads(text)
        assert "width.transform" in data["series_data"]
        samples = data["series_data"]["width.transform"]
        assert len(samples["times"]) == len(samples["values"]) > 0


class TestCompareCommand:
    def test_json(self):
        code, text = _run(
            ["compare", "pipeline", "--horizon", "120", "--json"]
        )
        assert code == 0
        data = json.loads(text)
        assert data["adapted"]["issued"] == data["control"]["issued"]
        assert "completed" in data["delta"]

    def test_text(self):
        code, text = _run(["compare", "pipeline", "--horizon", "120"])
        assert code == 0
        assert "adapted completes" in text


class TestReportCommand:
    def test_text_report(self):
        code, text = _run(["report", "pipeline", "--horizon", "60"])
        assert code == 0
        assert "summary" in text and "backlog.transform" in text


class TestErrorPaths:
    def test_unknown_scenario_exits_1(self):
        code, _ = _run(["run", "warehouse", "--json"])
        assert code == 1

    def test_unknown_param_exits_1(self):
        code, _ = _run(
            ["run", "pipeline", "--horizon", "60", "--set", "warp=9"]
        )
        assert code == 1

    def test_malformed_set_exits_1(self):
        code, _ = _run(["run", "pipeline", "--set", "no-equals-sign"])
        assert code == 1

    def test_value_an_owner_refuses_is_one_error_line(self, capsys):
        # the retry policy refuses a jitter above 1: the config must
        # refuse it when it resolves, not the build with a ValueError
        code, _ = _run(["run", "grid_site", "--fast", "--set", "retry_jitter=2.0"])
        assert code == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error:") and "retry_jitter" in errors[0]

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
