"""Tests for ``repro.lint``: the fixture corpus flags every rule, the
shipped scenarios pass clean, and the CLI speaks the compare-style exit
protocol (0 clean / 1 findings / 2 usage)."""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    LintFinding,
    Waiver,
    apply_waivers,
    lint_document,
    lint_repo_determinism,
    lint_scenario,
    parse_waivers,
)
from repro.lint.determinism import lint_python_source
from repro.lint.wiring import WiringView, lint_wiring

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

# fixture stem -> (rule id, lint_document context kwargs)
DSL_CASES = {
    "dsl100_parse_error": ("DSL100", {}),
    "dsl101_undefined_name": (
        "DSL101",
        {"bindings": {"maxLoad"}, "properties": {"load"}},
    ),
    "dsl102_stdlib_arity": ("DSL102", {}),
    "dsl103_literal_type": ("DSL103", {}),
    "dsl104_unreachable": ("DSL104", {}),
    "dsl105_unknown_call": ("DSL105", {"operators": {"grow"}}),
    "dsl106_no_commit": ("DSL106", {}),
    "dsl107_never_true": ("DSL107", {}),
    "dsl108_shadowed_call": ("DSL108", {}),
    "dsl109_unused_tactic": ("DSL109", {}),
    "dsl110_unknown_strategy": ("DSL110", {}),
    "fp201_universal_write": ("FP201", {"concurrency": "disjoint"}),
    "fp202_overlapping_writes": ("FP202", {"concurrency": "disjoint"}),
    "fp203_guard_pingpong": (
        "FP203",
        {"binding_values": {"maxLoad": 5.0, "lowWater": 8.0}},
    ),
}

SCENARIOS = (
    "client_server",
    "grid_site",
    "map_reduce",
    "master_worker",
    "multi_tenant",
    "pipeline",
)


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Every rule id has a minimal flagging reproducer
# ---------------------------------------------------------------------------


class TestFixtureCorpus:
    @pytest.mark.parametrize("stem", sorted(DSL_CASES))
    def test_dsl_fixture_flags_its_rule(self, stem):
        rule, ctx = DSL_CASES[stem]
        report = lint_document(read_fixture(f"{stem}.dsl"), source=stem, **ctx)
        fired = {f.rule for f in report.findings}
        assert rule in fired, f"{stem}: expected {rule}, got {fired or 'none'}"
        # minimal reproducers stay minimal: nothing else may fire
        assert fired == {rule}, f"{stem}: extra rules fired: {fired - {rule}}"

    @pytest.mark.parametrize("stem", sorted(DSL_CASES))
    def test_dsl_findings_carry_positions_and_hints(self, stem):
        rule, ctx = DSL_CASES[stem]
        report = lint_document(read_fixture(f"{stem}.dsl"), source=stem, **ctx)
        for finding in report.findings:
            assert finding.line > 0, f"{stem}: finding without a line"
            assert finding.hint, f"{stem}: finding without a fix hint"
            assert finding.source == stem

    @pytest.mark.parametrize(
        "stem,rule",
        [("det301_wall_clock", "DET301"), ("det302_unseeded_rng", "DET302")],
    )
    def test_det_fixture_flags_its_rule(self, stem, rule):
        findings = lint_python_source(read_fixture(f"{stem}.py.txt"), stem)
        assert {f.rule for f in findings} == {rule}

    @pytest.mark.parametrize(
        "stem,rule",
        [
            ("wir401_gauge_no_probe", "WIR401"),
            ("wir402_probe_no_subscriber", "WIR402"),
            ("wir402_ingest_probe_no_subscriber", "WIR402"),
            ("wir403_intent_no_effector", "WIR403"),
            ("wir404_threshold_no_gauge", "WIR404"),
        ],
    )
    def test_wiring_fixture_flags_its_rule(self, stem, rule):
        raw = json.loads(read_fixture(f"{stem}.json"))
        view = WiringView(
            source=raw["source"],
            probe_subjects=raw["probe_subjects"],
            subscription_patterns=raw["subscription_patterns"],
            gauges=[tuple(pair) for pair in raw["gauges"]],
            gauge_kinds=set(raw["gauge_kinds"]),
            wake_threshold_kinds=raw["wake_threshold_kinds"],
            declared_ops=(
                set(raw["declared_ops"])
                if raw["declared_ops"] is not None
                else None
            ),
            emitted_ops=raw["emitted_ops"],
        )
        assert {f.rule for f in lint_wiring(view)} == {rule}

    def test_corpus_covers_at_least_twelve_rules(self):
        rules = {rule for rule, _ctx in DSL_CASES.values()}
        rules |= {"DET301", "DET302", "WIR401", "WIR402", "WIR403", "WIR404"}
        assert len(rules) >= 12


# ---------------------------------------------------------------------------
# Rule behavior details
# ---------------------------------------------------------------------------


class TestRuleBehavior:
    def test_parse_error_reports_position(self):
        report = lint_document(read_fixture("dsl100_parse_error.dsl"))
        (finding,) = report.findings
        assert finding.rule == "DSL100"
        assert finding.line > 0 and finding.column > 0
        assert "parse" in finding.message

    def test_fp_rules_stay_quiet_in_serial_mode(self):
        for stem in ("fp201_universal_write", "fp202_overlapping_writes"):
            report = lint_document(read_fixture(f"{stem}.dsl"))
            assert report.ok, f"{stem} fired without disjoint concurrency"

    def test_fp203_respects_separated_thresholds(self):
        source = read_fixture("fp203_guard_pingpong.dsl")
        report = lint_document(
            source, binding_values={"maxLoad": 8.0, "lowWater": 5.0}
        )
        assert report.ok  # hysteresis band: shrink stops before grow starts

    def test_dsl101_quiet_without_name_context(self):
        report = lint_document(read_fixture("dsl101_undefined_name.dsl"))
        assert report.ok

    def test_det_ignores_annotations_and_seeded_rngs(self):
        clean = (
            "import numpy as np\n"
            "def make(seed: int) -> np.random.Generator:\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert lint_python_source(clean, "clean") == []

    def test_clean_fig05_corpus_passes_document_lint(self):
        report = lint_document(
            read_fixture("clean_fig05.dsl"), source="clean_fig05"
        )
        assert report.ok, [str(f) for f in report.findings]


@pytest.mark.parametrize(
    "finding, line",
    [
        (
            LintFinding("DSL106", "error", "a.dsl", "no commit", "add one", 3, 1),
            "a.dsl:3:1: error DSL106: no commit [add one]",
        ),
        (
            LintFinding("FP203", "warning", "pipeline", "ping-pong"),
            "pipeline: warning FP203: ping-pong",
        ),
    ],
    ids=["anchored-with-hint", "unanchored"],
)
def test_a_finding_reads_as_one_line(finding, line):
    assert str(finding) == line


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------


class TestWaivers:
    def test_parse_waivers_both_comment_styles(self):
        source = (
            "// lint: waive FP203 binary indicators\n"
            "x = 1\n"
            "# lint: waive DET301 reporting helper\n"
        )
        waivers = parse_waivers(source)
        assert [(w.rule, w.line) for w in waivers] == [
            ("FP203", 1),
            ("DET301", 3),
        ]
        assert waivers[0].reason == "binary indicators"

    def test_waiver_requires_a_reason(self):
        assert parse_waivers("// lint: waive FP203\n") == []
        assert parse_waivers("// lint: waive FP203   \n") == []

    def test_apply_waivers_splits_by_rule(self):
        findings = [
            LintFinding("FP203", "warning", "s", "a"),
            LintFinding("DSL106", "error", "s", "b"),
        ]
        kept, waived = apply_waivers(findings, [Waiver("FP203", "why")])
        assert [f.rule for f in kept] == ["DSL106"]
        assert [f.rule for f in waived] == ["FP203"]

    def test_waived_fixture_lints_clean(self):
        source = (
            "// lint: waive FP202 pools are per-tenant\n"
            + read_fixture("fp202_overlapping_writes.dsl")
        )
        report = lint_document(source, concurrency="disjoint")
        assert report.ok
        assert [f.rule for f in report.waived] == ["FP202"]
        assert report.waivers[0].reason == "pools are per-tenant"


# ---------------------------------------------------------------------------
# The shipped tree lints clean
# ---------------------------------------------------------------------------


class TestShippedSpecsClean:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_scenario_lints_clean(self, name):
        report = lint_scenario(name)
        assert report.ok, [str(f) for f in report.findings]

    def test_waivers_are_recorded_in_repo(self):
        # the two known static findings are waived in-source, not silenced
        assert {f.rule for f in lint_scenario("multi_tenant").waived} == {
            "FP202"
        }
        assert {f.rule for f in lint_scenario("grid_site").waived} == {"FP203"}

    def test_determinism_sweep_clean(self):
        report = lint_repo_determinism()
        assert report.ok, [str(f) for f in report.findings]
        assert "determinism" in report.source

    def test_linting_does_not_start_the_simulator(self):
        from repro.api import make_config
        from repro.experiment.scenarios import scenario_builder

        config = make_config("pipeline", adaptation=True, fast=True)
        scenario = scenario_builder("pipeline")(config)
        runtime = scenario.build()
        from repro.lint import lint_runtime

        lint_runtime(runtime, source="pipeline")
        assert runtime.sim.now == 0.0


# ---------------------------------------------------------------------------
# CLI protocol
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_clean_scenario_exits_zero(self):
        out = io.StringIO()
        assert main(["lint", "pipeline", "--no-determinism"], out=out) == 0
        assert "pipeline: ok" in out.getvalue()

    def test_unknown_scenario_exits_two(self):
        out = io.StringIO()
        assert main(["lint", "not_a_scenario"], out=out) == 2

    def test_dsl_file_clean_and_json(self):
        out = io.StringIO()
        path = str(FIXTURES / "clean_fig05.dsl")
        assert main(["lint", "--dsl", path, "--json"], out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload[0]["ok"] is True

    def test_dsl_file_with_findings_exits_one(self):
        out = io.StringIO()
        path = str(FIXTURES / "dsl106_no_commit.dsl")
        assert main(["lint", "--dsl", path, "--json"], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload[0]["findings"][0]["rule"] == "DSL106"

    def test_dsl_file_findings_in_text_mode(self):
        out = io.StringIO()
        path = str(FIXTURES / "dsl106_no_commit.dsl")
        assert main(["lint", "--dsl", path], out=out) == 1
        head, finding = out.getvalue().splitlines()
        assert head == f"{path}: 1 finding(s)"
        assert finding.startswith(f"  {path}:3:1: error DSL106: ")

    def test_missing_dsl_file_exits_two(self):
        out = io.StringIO()
        assert main(["lint", "--dsl", "/no/such/file.dsl"], out=out) == 2
