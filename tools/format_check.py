#!/usr/bin/env python
"""Approximate `ruff format --check` for environments without ruff.

Not the real formatter — a tokenizer-level checker for the invariants
that dominate ruff-format (black-style) diffs, used to hand-ratchet
files onto the CI format gate when ruff cannot be installed locally:

* lines longer than 88 columns;
* single-quoted strings (quote-style = "double");
* a multi-line bracket group WITHOUT a magic trailing comma whose
  one-line form would fit in 88 columns (black collapses it);
* a multi-line bracket group WITH a magic trailing comma where two
  top-level elements share a line (black explodes one per line).

False negatives are expected (this is a net, not the formatter); false
positives are possible around comments inside brackets — eyeball those.

Usage: python tools/format_check.py [FILE_OR_DIR ...]

With no arguments it checks RATCHETED — the same file list ci.yml's
format gate runs ruff over.  Keep the two lists identical: when you
ratchet a module in CI, add it here too, so `python tools/format_check.py`
approximates the gate locally without ruff
(`tests/test_format_gate_lists.py` fails when they differ).
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

#: mirror of the `ruff format --check` file list in .github/workflows/ci.yml
RATCHETED = [
    "src/repro/bus/",
    "src/repro/constraints/",
    "src/repro/faults/",
    "src/repro/lint/",
    "src/repro/monitoring/",
    "src/repro/net/",
    "src/repro/realtime/",
    "src/repro/serve/",
    "src/repro/sim/",
    "src/repro/acme/elements.py",
    "src/repro/acme/properties.py",
    "src/repro/acme/sharding.py",
    "src/repro/acme/system.py",
    "src/repro/repair/footprint.py",
    "src/repro/repair/history.py",
    "src/repro/repair/resilience.py",
    "src/repro/repair/sharding.py",
    "src/repro/repair/dsl/",
    "src/repro/runtime/sharding.py",
    "src/repro/runtime/stats.py",
    "src/repro/styles/map_reduce.py",
    "src/repro/styles/grid_site.py",
    "src/repro/app/async_pool_app.py",
    "src/repro/app/map_reduce_app.py",
    "src/repro/app/grid_site_app.py",
    "src/repro/experiment/map_reduce_scenario.py",
    "src/repro/experiment/grid_site_scenario.py",
    "src/repro/experiment/base.py",
    "src/repro/util/windows.py",
    "benchmarks/bench_x9_fault_resilience.py",
    "benchmarks/compare_bench.py",
    "tests/test_map_reduce_scenario.py",
    "tests/test_columnar_telemetry.py",
    "tests/test_telemetry_gate.py",
    "tests/test_faults.py",
    "tests/test_realtime.py",
    "tests/test_repair_resilience.py",
    "tests/test_serve.py",
    "tests/test_grid_site_scenario.py",
    "tests/test_transaction_crash_safety.py",
    "tests/test_probe_flush_on_abort.py",
    "tests/test_bus_index.py",
    "tests/test_tick_lifecycle.py",
    "tests/test_constraints_compile.py",
    "tests/test_repair_concurrency.py",
    "tests/test_kernel_order_oracle.py",
    "tests/test_kernel_runs.py",
    "tests/test_report_path.py",
    "tests/test_net_solver_oracle.py",
    "tests/test_model_forwarding_oracle.py",
    "tests/test_model_budget.py",
    "tests/test_repair_dsl_differential.py",
    "tests/test_repair_dsl_cycles.py",
    "tests/test_partition_oracle.py",
    "tests/test_updater_fanout_oracle.py",
    "tests/test_one_plane.py",
    "tests/test_one_delivery_path.py",
    "tests/test_format_gate_lists.py",
    "tests/reference/",
]

OPEN = {"(": ")", "[": "]", "{": "}"}
CLOSE = {")": "(", "]": "[", "}": "{"}
LIMIT = 88


def check_file(path: Path) -> list:
    problems = []
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if len(line) > LIMIT:
            problems.append((lineno, f"line too long ({len(line)} > {LIMIT})"))
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenError as exc:
        problems.append((0, f"tokenize failed: {exc}"))
        return problems

    for tok in tokens:
        if tok.type == tokenize.STRING:
            text = tok.string
            prefix_end = 0
            while prefix_end < len(text) and text[prefix_end] not in "\"'":
                prefix_end += 1
            body = text[prefix_end:]
            if body.startswith("'") and not body.startswith("'''"):
                if '"' not in body:  # black keeps ' when the text has "
                    problems.append(
                        (tok.start[0], f"single-quoted string: {text[:40]!r}")
                    )

    # bracket-group analysis
    stack = []  # (open_tok_index, open_char)
    groups = []  # (open_tok, close_tok, elem_start_lines, has_magic_comma)
    last_real = {}  # depth -> last non-NL token before close
    elem_lines = {}  # depth -> set of lines where a top-level element starts
    expecting_elem = {}  # depth -> bool
    for idx, tok in enumerate(tokens):
        kind, text = tok.type, tok.string
        if kind == tokenize.OP and text in OPEN:
            stack.append((idx, text, tok))
            depth = len(stack)
            elem_lines[depth] = set()
            expecting_elem[depth] = True
            last_real[depth] = None
        elif kind == tokenize.OP and text in CLOSE:
            if not stack:
                continue
            open_idx, open_char, open_tok = stack.pop()
            depth = len(stack) + 1
            magic = (
                last_real.get(depth) is not None
                and last_real[depth].type == tokenize.OP
                and last_real[depth].string == ","
            )
            groups.append(
                (open_tok, tok, sorted(elem_lines.get(depth, ())), magic)
            )
            if stack:
                d2 = len(stack)
                last_real[d2] = tok
                expecting_elem[d2] = False
        else:
            if stack:
                depth = len(stack)
                if kind in (
                    tokenize.NL,
                    tokenize.NEWLINE,
                    tokenize.COMMENT,
                    tokenize.INDENT,
                    tokenize.DEDENT,
                ):
                    continue
                if expecting_elem.get(depth):
                    elem_lines[depth].add(tok.start[0])
                    expecting_elem[depth] = False
                if kind == tokenize.OP and text == ",":
                    expecting_elem[depth] = True
                last_real[depth] = tok

    significant = [
        t
        for t in tokens
        if t.type
        not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    ]
    prev_of = {}
    for i, t in enumerate(significant[1:], start=1):
        prev_of[(t.start, t.string)] = significant[i - 1]

    for open_tok, close_tok, starts, magic in groups:
        if open_tok.start[0] == close_tok.start[0]:
            if magic:
                prev = prev_of.get((open_tok.start, open_tok.string))
                is_tuple = open_tok.string == "(" and (
                    prev is None
                    or prev.type == tokenize.OP
                    and prev.string not in (")", "]")
                )
                if not (is_tuple and len(starts) == 1):
                    problems.append(
                        (open_tok.start[0], "one-line group keeps trailing comma")
                    )
            continue
        if magic:
            if len(starts) != len(set(starts)):
                problems.append(
                    (
                        open_tok.start[0],
                        "magic trailing comma: elements must be one per line",
                    )
                )
        else:
            # would the group collapse onto the opening line?
            open_line = lines[open_tok.start[0] - 1]
            inner = []
            for ln in range(open_tok.start[0], close_tok.start[0] + 1):
                segment = lines[ln - 1]
                if ln == open_tok.start[0]:
                    segment = segment[open_tok.end[1]:]
                if ln == close_tok.start[0]:
                    cut = close_tok.start[1]
                    if ln == open_tok.start[0]:
                        cut -= open_tok.end[1]
                    segment = segment[:cut]
                if "#" in segment:
                    inner = None  # comments pin the group open
                    break
                inner.append(segment.strip())
            if inner is None:
                continue
            joined = " ".join(part for part in inner if part)
            joined = joined.replace("( ", "(").replace(" )", ")")
            one_line = (
                len(open_line[: open_tok.end[1]])
                + len(joined)
                + 1
                + len(lines[close_tok.start[0] - 1][close_tok.start[1]:])
            )
            if one_line <= LIMIT:
                problems.append(
                    (
                        open_tok.start[0],
                        f"group would collapse to one line ({one_line} cols)",
                    )
                )
    return problems


def main(argv):
    paths = []
    for arg in argv or RATCHETED:
        p = Path(arg)
        if p.is_dir():
            paths += sorted(p.rglob("*.py"))
        else:
            paths.append(p)
    failed = False
    for path in paths:
        for lineno, msg in check_file(path):
            failed = True
            print(f"{path}:{lineno}: {msg}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
