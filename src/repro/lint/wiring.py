"""Rule family 4: the wiring audit.

A spec can parse, type-check, and still monitor nothing: a gauge
subscribed to a subject no probe publishes sits silent forever, and the
invariant it feeds simply never fires.  These failures are invisible at
runtime — nothing crashes, numbers just stay flat — so the linter checks
the *built* wiring of a runtime before any event executes:

* ``WIR401`` — a gauge's probe-bus subscription matches no deployed
  probe's subject (the gauge will never consume an observation);
* ``WIR402`` — a probe's subject matches no probe-bus subscription
  (every report it publishes is dropped on the floor);
* ``WIR403`` — a style operator emits a runtime intent whose ``op`` the
  spec's intent executor does not declare (the repair commits on the
  model, then translation fails);
* ``WIR404`` — a ``WakeThreshold`` names a gauge kind no gauge in the
  spec reports (the threshold can never trip, so the checker never
  wakes for it).

The audit runs against a :class:`WiringView` — a plain-data snapshot of
the facts the rules need — so tests can also construct views directly
from fixtures without building a runtime.
"""

from __future__ import annotations

import ast as python_ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.bus.filters import subject_matches
from repro.lint.findings import ERROR, WARNING, LintFinding

__all__ = ["WiringView", "lint_wiring"]


@dataclass
class WiringView:
    """The wiring facts the audit runs over, decoupled from the runtime."""

    source: str = "<wiring>"
    #: subjects the deployed probes publish (probe name == subject)
    probe_subjects: List[str] = field(default_factory=list)
    #: every probe-bus subscription pattern (gauges, consumers, ...)
    subscription_patterns: List[str] = field(default_factory=list)
    #: (gauge name, subscribed pattern) for each gauge
    gauges: List[Tuple[str, str]] = field(default_factory=list)
    #: kinds the spec's gauges report under
    gauge_kinds: Set[str] = field(default_factory=set)
    #: gauge kinds named by the spec's wake thresholds
    wake_threshold_kinds: List[str] = field(default_factory=list)
    #: ops the intent executor declares; None = executor doesn't say
    declared_ops: Optional[Set[str]] = None
    #: intent op -> name of the style operator that emits it
    emitted_ops: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_runtime(cls, runtime, source: str = "<wiring>") -> "WiringView":
        """Snapshot a built (not necessarily started) AdaptationRuntime."""
        view = cls(source=source)
        view.probe_subjects = [probe.name for probe in runtime.probes]
        view.subscription_patterns = [
            sub.pattern for sub in runtime.probe_bus.subscriptions
        ]
        for gauge in runtime.gauges:
            if gauge._sub is not None:
                view.gauges.append((gauge.name, gauge._sub.pattern))
            view.gauge_kinds.add(gauge.kind)
        view.wake_threshold_kinds = sorted(runtime.spec.wake_thresholds)
        translator = runtime.translator
        while hasattr(translator, "inner"):  # unwrap fault-plane decorators
            translator = translator.inner
        declared = getattr(translator, "INTENT_OPS", None)
        view.declared_ops = set(declared) if declared is not None else None
        for op_name, operator in runtime.manager.operators.items():
            for intent_op in _intent_ops_of(operator):
                view.emitted_ops.setdefault(intent_op, op_name)
        return view


def _intent_ops_of(operator) -> List[str]:
    """String-literal ops an operator callable passes to ``ctx.intend``.

    Static extraction from the callable's own source; operators whose
    source is unavailable (builtins, C extensions) contribute nothing —
    the audit under-reports rather than guesses.
    """
    try:
        source_text = textwrap.dedent(inspect.getsource(operator))
    except (OSError, TypeError):
        return []
    try:
        tree = python_ast.parse(source_text)
    except SyntaxError:
        return []
    ops: List[str] = []
    for node in python_ast.walk(tree):
        if (
            isinstance(node, python_ast.Call)
            and isinstance(node.func, python_ast.Attribute)
            and node.func.attr == "intend"
            and node.args
            and isinstance(node.args[0], python_ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            ops.append(node.args[0].value)
    return ops


def lint_wiring(view: WiringView) -> List[LintFinding]:
    findings: List[LintFinding] = []
    findings += _check_gauge_feeds(view)
    findings += _check_probe_audiences(view)
    findings += _check_intent_ops(view)
    findings += _check_wake_thresholds(view)
    return findings


def _check_gauge_feeds(view: WiringView) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for gauge_name, pattern in view.gauges:
        if any(subject_matches(pattern, subject) for subject in view.probe_subjects):
            continue
        findings.append(
            LintFinding(
                rule="WIR401",
                severity=ERROR,
                source=view.source,
                message=(
                    f"gauge {gauge_name!r} subscribes to {pattern!r} but no "
                    "deployed probe publishes a matching subject: the gauge "
                    "never consumes an observation"
                ),
                hint="add the probe to the spec's instruments, or fix the "
                "gauge's target/kind so the subject lines up",
            )
        )
    return findings


def _check_probe_audiences(view: WiringView) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for subject in view.probe_subjects:
        if any(
            subject_matches(pattern, subject)
            for pattern in view.subscription_patterns
        ):
            continue
        findings.append(
            LintFinding(
                rule="WIR402",
                severity=WARNING,
                source=view.source,
                message=(
                    f"probe {subject!r} has no subscriber on the probe bus: "
                    "every report it publishes is dropped"
                ),
                hint="remove the instrument or add the gauge that should "
                "consume it",
            )
        )
    return findings


def _check_intent_ops(view: WiringView) -> List[LintFinding]:
    if view.declared_ops is None:
        return []  # executor declares nothing; nothing to audit against
    findings: List[LintFinding] = []
    for intent_op, operator_name in sorted(view.emitted_ops.items()):
        if intent_op in view.declared_ops:
            continue
        declared = ", ".join(sorted(view.declared_ops)) or "none"
        findings.append(
            LintFinding(
                rule="WIR403",
                severity=ERROR,
                source=view.source,
                message=(
                    f"operator {operator_name!r} emits intent {intent_op!r} "
                    "but the intent executor does not declare it "
                    f"(declared: {declared}): the repair commits on the "
                    "model and then fails in translation"
                ),
                hint="handle the op in the executor (and add it to the "
                "executor's INTENT_OPS)",
            )
        )
    return findings


def _check_wake_thresholds(view: WiringView) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for kind in view.wake_threshold_kinds:
        if kind in view.gauge_kinds:
            continue
        kinds = ", ".join(sorted(view.gauge_kinds)) or "none"
        findings.append(
            LintFinding(
                rule="WIR404",
                severity=ERROR,
                source=view.source,
                message=(
                    f"wake threshold names gauge kind {kind!r} but the spec "
                    f"deploys no gauge of that kind (deployed: {kinds}): "
                    "the threshold can never trip"
                ),
                hint="fix the wake_thresholds key or deploy the gauge",
            )
        )
    return findings
