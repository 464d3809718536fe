#!/usr/bin/env python
"""Reachability gate: every ``src/repro`` def the system never runs.

Drives the production entry points in one process with the stdlib
profiler hook (``sys.setprofile``, and ``threading.setprofile`` for the
threads they start) and records the code object of every Python frame
entered:

* every registered scenario, adapted and control, at full horizon;
* ``repro.cli.main`` for ``lint --json``, ``list`` and ``run`` /
  ``compare`` / ``report``, each in text and ``--json``;
* every ``ServeApp`` route, socket-free, against a runtime that has run
  (so ``/repair-history`` serializes real records), a ``POST /run``, and
  ``POST /ingest`` into a ``RealtimeDriver`` on a ``FakeClock``;
* every ``examples/*.py``, run in-process as ``__main__``;
* the six ``benchmarks/e2e`` workloads at ``--quick`` size.

Every ``def`` under ``src/repro`` (found with :mod:`ast`) whose code
object was never entered is printed as strict JSON on stdout, sorted by
path and line: ``{"count", "lines", "unreached": [{"path", "qualname",
"line", "lines"}]}``.  The exit code is 1 when an unreached def has no
line in ``tools/reach_allow.txt`` or an allowed def was reached (the
list only shrinks), 0 otherwise.  Each allow-list line is::

    src/repro/pkg/module.py:Qual.name  category  one-line reason

with ``category`` one of :data:`CATEGORIES`.  A property's setter shares
its getter's qualname, so one line covers both.

Usage::

    python tools/reach.py > unreached.json

It takes no flags and about 20 s on a 2-core host.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ALLOW = ROOT / "tools" / "reach_allow.txt"
#: allow-list categories: why a def stays although no entry point runs it
CATEGORIES = {
    "bench": "used or named by anything under benchmarks/",
    "public": "user-facing API named in docs/ or examples/",
    "reserved": "an open ROADMAP item gives it a use",
    "safety": "refuses outside input or handles an error a call can return",
    "test-seam": "a named test uses it as a reference or a driver",
    "socket": "repro serve / live-demo code that CI drives over real sockets",
}
#: the CLI runs; scenario runs hit the result cache the census filled
CLI_RUNS = (
    ["lint", "--json"],
    ["list"],
    ["list", "--json"],
    ["run", "client_server"],
    ["run", "client_server", "--json", "--series"],
    ["compare", "client_server"],
    ["compare", "client_server", "--json"],
    ["report", "client_server"],
    ["report", "client_server", "--json"],
)

Key = Tuple[str, str]  # (repo-relative path, qualname)


def defs() -> Dict[Tuple[str, int], Tuple[str, int]]:
    """``(absolute path, first line) -> (qualname, lines)`` of every def.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                qualname = prefix + child.name
                found[path, first] = (qualname, child.end_lineno - first + 1)
                walk(child, f"{qualname}.<locals>.", path)
            else:
                walk(child, prefix, path)

    for module in sorted(SRC.rglob("*.py")):
        walk(ast.parse(module.read_text(), str(module)), "", str(module))
    return found


class _Pool:
    """The surface ``build_live_pool_spec`` samples and actuates."""

    host, port = "census", 0

    def __init__(self) -> None:
        self.pool_size, self.queue_depth = 2, 0.0

    def utilization(self) -> float:
        return 0.5

    def request_resize(self, size: int) -> None:
        self.pool_size = int(size)


def drive_scenarios() -> None:
    from repro import api

    for name in api.scenario_names():
        for config in (api.RunConfig.adapted(name), api.RunConfig.control(name)):
            result = api.run(config)
            result.summary()
            result.history_dicts()


def drive_cli() -> None:
    from repro import cli

    for argv in CLI_RUNS:
        status = cli.main(argv, out=io.StringIO())
        if status != 0:
            sys.exit(f"reach: repro {' '.join(argv)} exited {status}")


def drive_serve() -> None:
    from repro import api
    from repro.experiment.scenarios import scenario_builder
    from repro.realtime import FakeClock, RealtimeDriver
    from repro.realtime.demo import LivePoolManagedApplication, build_live_pool_spec
    from repro.serve.app import ServeApp

    experiment = scenario_builder("master_worker")(api.make_config("master_worker"))
    experiment.run()
    ran = ServeApp(runtime=experiment.runtime, clock=FakeClock())
    for path in ("/health", "/stats", "/repair-history"):
        ran.handle("GET", path)
    pool = _Pool()
    driver = RealtimeDriver(
        LivePoolManagedApplication(pool, min_workers=2),
        build_live_pool_spec(pool),
        clock=FakeClock(),
    )
    live = ServeApp(driver=driver, clock=FakeClock())
    live.handle("POST", "/ingest", {"kind": "latency", "target": "pool", "value": 0.2})
    live.handle("POST", "/ingest", {"kind": "nope", "target": "pool", "value": 0.2})
    live.handle("POST", "/ingest", {"kind": "latency", "target": "pool", "value": "nan"})
    live.handle("GET", "/ingest")
    live.handle("GET", "/nowhere")
    driver.run_until(2.0)
    for path in ("/health", "/stats", "/repair-history"):
        live.handle("GET", path)
    driver.stop()
    idle = ServeApp(clock=FakeClock())
    idle.handle("POST", "/run", {"scenario": "pipeline"})
    for path in ("/health", "/stats", "/repair-history"):
        idle.handle("GET", path)


def drive_examples() -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")


def drive_e2e() -> None:
    from e2e import workloads

    for name in sorted(workloads.WORKLOADS):
        outcome = workloads.WORKLOADS[name].run(2002, workloads.Scale(15.0, True))
        if not outcome.verdict.correct:
            sys.exit(f"reach: e2e {name} --quick was not correct")


def census() -> Set[Tuple[str, int]]:
    """``(path, co_firstlineno)`` of every code object any entry point entered."""
    entered: Dict[int, object] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code  # the value keeps the id unique

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        drive_scenarios()
        drive_cli()
        drive_serve()
        drive_examples()
        drive_e2e()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in entered.values()}


def allow_entries(text: str) -> List[Tuple[str, str, str, str]]:
    """``(path, qualname, category, reason)`` of each allow-list line.

    ``ValueError`` for a line that is not ``path:qualname category
    reason``, names an unknown category, or repeats an earlier def.
    """
    entries: List[Tuple[str, str, str, str]] = []
    seen: Set[Key] = set()
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3 or ":" not in parts[0]:
            raise ValueError(f"line {number}: want 'path:qualname category reason'")
        if parts[1] not in CATEGORIES:
            raise ValueError(f"line {number}: unknown category {parts[1]!r}")
        path, qualname = parts[0].split(":", 1)
        if (path, qualname) in seen:
            raise ValueError(f"line {number}: {parts[0]} is listed twice")
        seen.add((path, qualname))
        entries.append((path, qualname, parts[1], parts[2]))
    return entries


def main() -> int:
    for entry in (ROOT / "src", ROOT / "benchmarks"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    allow = {(p, q) for p, q, _, _ in allow_entries(ALLOW.read_text())}
    everything = defs()
    entered = census()
    unreached: List[dict] = []
    for (path, first), (qualname, lines) in sorted(everything.items()):
        if (path, first) not in entered:
            relative = str(Path(path).relative_to(ROOT))
            unreached.append(
                {"path": relative, "qualname": qualname, "line": first, "lines": lines}
            )
    print(
        json.dumps(
            {
                "count": len(unreached),
                "lines": sum(entry["lines"] for entry in unreached),
                "unreached": unreached,
            },
            indent=1,
            allow_nan=False,
        )
    )
    # a key is reached when every def under it is (a setter shares its
    # getter's qualname)
    open_keys = {(e["path"], e["qualname"]) for e in unreached}
    for path, qualname in sorted(open_keys - allow):
        print(f"reach: unreached, not allowed: {path}:{qualname}", file=sys.stderr)
    for path, qualname in sorted(allow - open_keys):
        print(f"reach: allowed but reached or gone, drop its line: {path}:{qualname}",
              file=sys.stderr)
    return 1 if open_keys != allow else 0


if __name__ == "__main__":
    sys.exit(main())
