"""``python -m repro`` — drive any registered scenario from the shell.

Subcommands:

* ``list``    — registered scenarios and their typed parameter blocks;
* ``run``     — run one scenario (``--control``, ``--fast``, ``--set``);
* ``compare`` — adapted vs control under the identical seeded workload;
* ``report``  — full text report (summary, claims, series strips);
* ``lint``    — static analysis over adaptation specs (DSL semantics,
  static footprints, determinism, wiring) without running any events;
* ``serve``   — HTTP front door (``/health``, ``/stats``,
  ``/repair-history``, ``/run``, ``/ingest``) over the stdlib server;
* ``live-demo`` — adapt a real asyncio worker pool under burst load on
  the wall-clock plane, comparing adapted vs control p95.

``--json`` emits machine-readable output (strict JSON, no NaN); every
command exits 0 on success, 1 on a :class:`~repro.errors.ReproError`
(bad scenario name, bad parameter, inconsistent values), 2 on usage
errors.  ``--set field=value`` accepts neutral fields and typed
per-scenario params alike — values parse as JSON literals, falling back
to strings::

    python -m repro run pipeline --fast --set burst_rate=4.0 --json
    python -m repro compare master_worker --set straggler_prob=0.05
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import api
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _parse_set(pairs: Sequence[str]) -> Dict[str, Any]:
    """``["a=1", "b=true", "c=first"]`` -> ``{"a": 1, "b": True, "c": "first"}``."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(
                f"--set takes field=value, got {pair!r}"
            )
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # unquoted strings ("first", "worst", ...)
        overrides[key.strip()] = value
    return overrides


def _emit(data: Any, as_json: bool, out) -> None:
    if as_json:
        print(json.dumps(data, indent=2, allow_nan=False), file=out)
    else:
        print(data, file=out)


def _config_from_args(args, adaptation: Optional[bool] = None):
    return api.make_config(
        args.scenario,
        name=getattr(args, "name", None),
        adaptation=(not args.control) if adaptation is None else adaptation,
        seed=args.seed,
        horizon=args.horizon,
        fast=args.fast,
        overrides=_parse_set(args.set),
    )


# -- subcommands -------------------------------------------------------------

def _cmd_list(args, out) -> int:
    entries = api.list_scenarios()
    if args.json:
        _emit(entries, True, out)
        return 0
    for entry in entries:
        print(f"{entry['name']:<16} {entry['description']}", file=out)
        print(f"{'':<16} params: {entry['params_type']}", file=out)
        for field, default in sorted(entry["params"].items()):
            print(f"{'':<18}  {field} = {default!r}", file=out)
    return 0


def _cmd_run(args, out) -> int:
    config = _config_from_args(args)
    result = api.run(config, fresh=args.fresh)
    if args.json:
        print(result.to_json(indent=2, include_series=args.series), file=out)
    else:
        summary = result.summary()
        print(
            f"{config.scenario}/{config.name}: issued {summary['issued']}, "
            f"completed {summary['completed']}, dropped {summary['dropped']}, "
            f"repairs {summary['repairs']['committed']} committed / "
            f"{summary['repairs']['aborted']} aborted",
            file=out,
        )
        for key, value in sorted((summary.get("details") or {}).items()):
            print(f"  {key}: {value}", file=out)
    return 0


def _cmd_compare(args, out) -> int:
    pair = api.compare(
        args.scenario,
        seed=args.seed,
        horizon=args.horizon,
        fast=args.fast,
        fresh=args.fresh,
        overrides=_parse_set(args.set),
    )
    adapted, control = pair["adapted"], pair["control"]
    if args.json:
        _emit(
            {
                "scenario": pair["scenario"],
                "adapted": adapted.summary(),
                "control": control.summary(),
                "delta": pair["delta"],
            },
            True,
            out,
        )
        return 0
    print(f"scenario {pair['scenario']!r} (seed {args.seed})", file=out)
    rows = [
        ("issued", control.issued, adapted.issued),
        ("completed", control.completed, adapted.completed),
        ("dropped", control.dropped, adapted.dropped),
        ("repairs committed", len(control.history.committed),
         len(adapted.history.committed)),
        ("repairs aborted", len(control.history.aborted),
         len(adapted.history.aborted)),
    ]
    print(f"{'measure':<20} {'control':>12} {'adapted':>12}", file=out)
    for label, c, a in rows:
        print(f"{label:<20} {c:>12} {a:>12}", file=out)
    print(
        f"adapted completes {pair['delta']['completed']:+d} vs control",
        file=out,
    )
    return 0


def _cmd_report(args, out) -> int:
    config = _config_from_args(args)
    if args.json:
        result = api.run(config, fresh=args.fresh)
        print(result.to_json(indent=2, include_series=True), file=out)
        return 0
    print(api.report(config, fresh=args.fresh), file=out)
    return 0


def _cmd_lint(args, out) -> int:
    # imported lazily: the lint package pulls the experiment layer in
    from repro.experiment.scenarios import scenario_names
    from repro.lint import lint_all, lint_document

    if args.dsl:
        try:
            source_text = open(args.dsl, encoding="utf-8").read()
        except OSError as exc:
            print(f"error: cannot read {args.dsl}: {exc}", file=sys.stderr)
            return 2
        reports = [lint_document(source_text, source=args.dsl)]
    else:
        known = set(scenario_names())
        unknown = [name for name in args.scenarios if name not in known]
        if unknown:
            print(
                f"error: unknown scenario(s) {', '.join(unknown)} "
                f"(registered: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
        reports = lint_all(
            args.scenarios or None, determinism=not args.no_determinism
        )

    if args.json:
        _emit([report.as_dict() for report in reports], True, out)
    else:
        for report in reports:
            status = "ok" if report.ok else f"{len(report.findings)} finding(s)"
            waived = (
                f" ({len(report.waived)} waived)" if report.waived else ""
            )
            print(f"{report.source}: {status}{waived}", file=out)
            for finding in report.findings:
                print(f"  {finding}", file=out)
    return 0 if all(report.ok for report in reports) else 1


def _cmd_serve(args, out) -> int:
    # imported lazily: the serve layer pulls realtime + http machinery in
    from repro.experiment.scenarios import scenario_builder
    from repro.serve.app import ServeApp
    from repro.serve.http import run_server

    runtime = None
    if args.scenario is not None:
        config = api.make_config(args.scenario, fast=True)
        runtime = scenario_builder(args.scenario)(config).build()
    return run_server(args.host, args.port, ServeApp(runtime=runtime), out=out)


def _cmd_live_demo(args, out) -> int:
    # imported lazily: the demo pulls the realtime plane + asyncio app in
    from repro.realtime.demo import main as demo_main

    return demo_main(args, out)


# -- parser ------------------------------------------------------------------

def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="registered scenario name")
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument(
        "--horizon", type=float, default=None,
        help="simulated seconds (default: the scenario's 1800)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help=f"cap the horizon at {api.FAST_HORIZON:.0f} s (smoke mode)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="re-run even if an equal config is cached",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="FIELD=VALUE",
        help="override a neutral field or typed scenario param (repeatable)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, list, and compare adaptation scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="registered scenarios + params")
    p_list.add_argument("--json", action="store_true", help="emit JSON")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one scenario")
    _add_run_options(p_run)
    p_run.add_argument(
        "--control", action="store_true", help="disable adaptation"
    )
    p_run.add_argument(
        "--name", default=None, help="run name (default: adapted/control)"
    )
    p_run.add_argument(
        "--series", action="store_true",
        help="include full series data in --json output",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="adapted vs control")
    _add_run_options(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_rep = sub.add_parser("report", help="full text report of one run")
    _add_run_options(p_rep)
    p_rep.add_argument(
        "--control", action="store_true", help="disable adaptation"
    )
    p_rep.add_argument("--name", default=None)
    p_rep.set_defaults(fn=_cmd_report)

    p_lint = sub.add_parser(
        "lint", help="static analysis over adaptation specs"
    )
    p_lint.add_argument(
        "scenarios", nargs="*", metavar="scenario",
        help="scenarios to lint (default: all registered)",
    )
    p_lint.add_argument(
        "--dsl", default=None, metavar="PATH",
        help="lint one repair-DSL file instead of built scenarios",
    )
    p_lint.add_argument(
        "--no-determinism", action="store_true",
        help="skip the determinism sweep over the repro tree",
    )
    p_lint.add_argument("--json", action="store_true", help="emit JSON")
    p_lint.set_defaults(fn=_cmd_lint)

    p_serve = sub.add_parser(
        "serve", help="HTTP front door for stats, history, and runs"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8023, help="0 picks a free port"
    )
    p_serve.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="build NAME's control plane (never started) behind /stats",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_demo = sub.add_parser(
        "live-demo", help="wall-clock adaptation demo (adapted vs control)"
    )
    p_demo.add_argument(
        "--check", action="store_true",
        help="exit 1 unless adapted beats control on burst p95",
    )
    p_demo.add_argument(
        "--fast", action="store_true", help="shorter load phases"
    )
    p_demo.add_argument(
        "--factor", type=float, default=0.75,
        help="required adapted/control burst-p95 ratio (default 0.75)",
    )
    p_demo.add_argument("--json", action="store_true", help="emit JSON")
    p_demo.set_defaults(fn=_cmd_live_demo)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
