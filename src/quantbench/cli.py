"""Command-line interface.

Subcommands: list-scenarios, run, quantize, reduce, report.  Exit codes:
0 = success (hypotheses-not-met included), 1 = a check failed, 2 = usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import build_scenario, list_scenarios
from .errors import QuantbenchError, SchemaError
from .reports import CheckRecord, Report
from .runner import run_scenario
from .scenario_io import load_scenario_file


def _build(args):
    if args.scenario.endswith(".json") or os.path.sep in args.scenario:
        if args.level is not None:
            raise QuantbenchError("--level applies to catalog names, not to a scenario file")
        return load_scenario_file(args.scenario)
    return build_scenario(args.scenario, level=args.level)


def _emit(report: Report, args) -> int:
    if args.format == "json":
        text = report.to_json()
    else:
        text = report.to_text()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if report.failed else 0


def _cmd_list(args) -> int:
    rows = list_scenarios(args.filter or "")
    for row in rows:
        levels = "" if row["levels"] is None else \
            f" (levels {', '.join(str(l) for l in row['levels'])})"
        print(f"{row['name']:<28} {row['description']}{levels}")
    return 0


def _cmd_run(args) -> int:
    """`run` honours --checks; `quantize` and `reduce` fix their stages."""
    checks = args.stages or {name for name in args.checks.split(",") if name} or None
    return _emit(run_scenario(_build(args), checks=checks), args)


def _cmd_report(args) -> int:
    with open(args.file) as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"report file invalid: {exc}") from exc
    report = Report(_field(data, "scenario", str, "?"),
                    conventions=_field(data, "conventions", list, []))
    for rec in _field(data, "records", list, []):
        report.add(CheckRecord(_field(rec, "check", str), _field(rec, "status", str),
                               _field(rec, "failures", list, []),
                               _field(rec, "notes", list, []),
                               _field(rec, "details", dict, {}), anchor=rec.get("anchor")))
    sys.stdout.write(report.to_text())
    return 0


def _field(node, key, kind, default=None):
    """`node[key]`, or `default` when it is missing, checked to be a `kind`:
    the text rendering reads every such field of a saved report as one."""
    if not isinstance(node, dict):
        raise SchemaError("report file invalid: a report and each record are objects")
    value = node.get(key, default)
    if not isinstance(value, kind):
        raise SchemaError(f"report file invalid: {key} must be of type {kind.__name__}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quantbench",
        description="exact verification workbench for momentum maps, "
                    "prequantization and fiberwise quantization")
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list-scenarios", help="list the built-in catalog")
    p_list.add_argument("--filter", default="", help="substring filter")
    p_list.set_defaults(func=_cmd_list)

    def add_common(p):
        p.add_argument("scenario", help="catalog name or scenario JSON path")
        p.add_argument("--level", type=int, default=None,
                       help="level parameter for parametrized families")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default="", help="write the report to a file")

    for name, stages, text in (
            ("run", None, "run the full verification stack"),
            ("quantize", {"quantize", "prequantize"}, "prequantization + quantization stages"),
            ("reduce", {"quantize", "reduce"}, "quantization + reduction stages")):
        p_cmd = sub.add_parser(name, help=text)
        add_common(p_cmd)
        if stages is None:
            p_cmd.add_argument("--checks", default="",
                               help="comma-separated check ids or stage names; the "
                                    "checks they depend on run too")
        p_cmd.set_defaults(func=_cmd_run, stages=stages)

    p_rep = sub.add_parser("report", help="render a saved JSON report as text")
    p_rep.add_argument("file")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    except OSError as exc:  # a missing file, a directory, no permission
        sys.stderr.write(f"file error: {exc}\n")
        return 2
    except QuantbenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
