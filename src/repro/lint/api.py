"""Lint entry points: documents, built scenarios, and the whole tree.

Three granularities, all returning plain data:

* :func:`lint_document` — one repair-DSL source, with as much or as
  little spec context as the caller has (fixtures pass none; scenarios
  pass bindings, model properties, and operator tables);
* :func:`lint_scenario` — build a registered scenario's control plane
  (without running a single event) and lint everything it wires: the
  DSL through family 1 and 2, the probe/gauge/effector wiring through
  family 4;
* :func:`lint_repo_determinism` — family 3 over the simulator-facing
  packages of the installed ``repro`` tree.

Building a runtime only *constructs* objects — the simulator never
starts, so linting can never perturb a run.  The serial-fingerprint
suite pins that claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

import repro
from repro.lint.determinism import lint_determinism_tree
from repro.lint.dsl_rules import (
    DocumentContext,
    lint_parsed_document,
    parse_for_lint,
)
from repro.lint.findings import (
    ERROR,
    LintFinding,
    Waiver,
    apply_waivers,
    parse_waivers,
)
from repro.lint.footprint_rules import lint_footprints
from repro.lint.wiring import WiringView, lint_wiring

__all__ = [
    "LintReport",
    "lint_document",
    "lint_runtime",
    "lint_scenario",
    "lint_repo_determinism",
    "lint_all",
]


@dataclass
class LintReport:
    """The outcome of one lint run over one source."""

    source: str
    findings: List[LintFinding] = field(default_factory=list)
    waived: List[LintFinding] = field(default_factory=list)
    waivers: List[Waiver] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "ok": self.ok,
            "findings": [f.as_dict() for f in self.findings],
            "waived": [f.as_dict() for f in self.waived],
            "waivers": [
                {"rule": w.rule, "reason": w.reason, "line": w.line}
                for w in self.waivers
            ],
        }


def lint_document(
    source_text: str,
    *,
    source: str = "<dsl>",
    bindings: Optional[Set[str]] = None,
    properties: Optional[Set[str]] = None,
    operators: Optional[Set[str]] = None,
    concurrency: str = "serial",
    binding_values: Optional[Mapping[str, float]] = None,
) -> LintReport:
    """Lint one repair-DSL document (families 1 and 2)."""
    ctx = DocumentContext(
        source=source,
        bindings=set(bindings) if bindings is not None else None,
        properties=set(properties) if properties is not None else None,
        operators=set(operators) if operators is not None else None,
        concurrency=concurrency,
        binding_values=dict(binding_values or {}),
    )
    doc, findings = parse_for_lint(source_text, ctx)
    if doc is not None:
        findings = findings + lint_parsed_document(doc, ctx)
        findings = findings + lint_footprints(doc, ctx)
    waivers = parse_waivers(source_text)
    kept, waived = apply_waivers(findings, waivers)
    return LintReport(source=source, findings=kept, waived=waived, waivers=waivers)


def _model_property_names(model) -> Set[str]:
    """Every property name any element of the model declares.

    Bare names in invariant expressions resolve against the invariant's
    scope element, so the union over all elements is the right "could
    this name ever resolve" set for DSL101.
    """
    names: Set[str] = set()
    for component in model.components:
        names.update(component.property_names())
        for port in component.ports:
            names.update(port.property_names())
    for connector in model.connectors:
        names.update(connector.property_names())
        for role in connector.roles:
            names.update(role.property_names())
    return names


def _numeric_bindings(bindings: Mapping[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, value in bindings.items():
        if isinstance(value, Real) and not isinstance(value, bool):
            out[name] = float(value)
    return out


def lint_runtime(runtime, source: str) -> LintReport:
    """Lint a built :class:`AdaptationRuntime`: its DSL and its wiring."""
    spec = runtime.spec
    report = lint_document(
        spec.dsl_source,
        source=source,
        bindings=set(spec.bindings),
        properties=_model_property_names(runtime.model),
        operators=set(runtime.manager.operators),
        concurrency=spec.concurrency,
        binding_values=_numeric_bindings(spec.bindings),
    )
    wiring_findings = lint_wiring(WiringView.from_runtime(runtime, source=source))
    kept, waived = apply_waivers(wiring_findings, report.waivers)
    report.findings.extend(kept)
    report.waived.extend(waived)
    return report


def lint_scenario(name: str, **config_kwargs: Any) -> LintReport:
    """Build scenario ``name``'s control plane (no events run) and lint it."""
    # imported lazily: repro.api pulls the whole experiment layer in
    from repro.api import make_config
    from repro.experiment.scenarios import scenario_builder

    config = make_config(name, adaptation=True, fast=True, **config_kwargs)
    runtime = scenario_builder(name)(config).build()
    if runtime is None:
        return LintReport(
            source=name,
            findings=[
                LintFinding(
                    rule="WIR400",
                    severity=ERROR,
                    source=name,
                    message="scenario built no control plane to lint",
                    hint="lint runs against adaptation=True builds",
                )
            ],
        )
    return lint_runtime(runtime, source=name)


def lint_repo_determinism(
    root: Optional[Path] = None,
) -> LintReport:
    """Family 3 over the installed ``repro`` tree's simulation packages."""
    base = root if root is not None else Path(repro.__file__).parent
    findings, scanned = lint_determinism_tree(base)
    report = LintReport(source=f"determinism[{scanned} files]")
    report.findings = findings
    return report


def lint_all(
    scenarios: Optional[Sequence[str]] = None,
    *,
    determinism: bool = True,
) -> List[LintReport]:
    """Lint the named scenarios (default: all registered) and the tree."""
    from repro.experiment.scenarios import scenario_names

    names = list(scenarios) if scenarios else scenario_names()
    reports = [lint_scenario(name) for name in names]
    if determinism:
        reports.append(lint_repo_determinism())
    return reports
