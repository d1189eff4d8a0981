"""Command-line interface.

    eqcol run <scenario.json> [--out FILE] [--dot DIR]
    eqcol molien <scenario.json> [--max-degree M] [--out FILE]
    eqcol quiver <scenario.json> [--out FILE] [--dot DIR]
    eqcol gram <scenario.json> [--out FILE]

Exit codes: 0 when every requested check passed, 1 when a check failed,
2 when the scenario could not be parsed, validated, or executed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import EqcolError
from .report import emit_dot, emit_report_json, gram_text, molien_text
from .reps import molien_dimension
from .scenario import (DEFAULT_MOLIEN_DEGREE, build_setup, load_scenario,
                       run_scenario)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eqcol",
        description="equivariant exceptional collections on projective space")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario, emit JSON report")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", help="write the report here instead of stdout")
    run_p.add_argument("--dot", help="directory for DOT quiver files")

    molien_p = sub.add_parser("molien", help="invariant dimension table")
    molien_p.add_argument("scenario")
    molien_p.add_argument("--max-degree", type=int, default=None)
    molien_p.add_argument("--out")

    quiver_p = sub.add_parser("quiver", help="quiver of the final collection")
    quiver_p.add_argument("scenario")
    quiver_p.add_argument("--out")
    quiver_p.add_argument("--dot", help="directory for the DOT file")

    gram_p = sub.add_parser("gram", help="Gram matrix of the final collection")
    gram_p.add_argument("scenario")
    gram_p.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "molien":
            return _cmd_molien(args)
        if args.command == "quiver":
            return _cmd_quiver(args)
        return _cmd_gram(args)
    except EqcolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_dots(report: dict, dot_dir: str | None) -> None:
    if not dot_dir:
        return
    section = report["tasks"].get("quiver")
    if not section or not section.get("ok", False) or "dot" not in section:
        return
    directory = Path(dot_dir)
    directory.mkdir(parents=True, exist_ok=True)
    name = report["scenario"]["name"]
    (directory / f"{name}.dot").write_text(section["dot"])


def _cmd_run(args) -> int:
    report = run_scenario(args.scenario)
    _write(emit_report_json(report), args.out)
    _write_dots(report, args.dot)
    return 0 if report["passed"] else 1


def _cmd_molien(args) -> int:
    scenario = load_scenario(args.scenario)
    setup = build_setup(scenario)
    degree = args.max_degree
    if degree is None:
        degree = next((t["max_degree"] for t in scenario.tasks
                       if t["task"] == "molien"), DEFAULT_MOLIEN_DEGREE)
    dims = [molien_dimension(setup, m) for m in range(degree + 1)]
    _write(molien_text(dims), args.out)
    return 0


def _cmd_quiver(args) -> int:
    report = run_scenario(args.scenario, ensure=("quiver",))
    section = report["tasks"]["quiver"]
    if not section.get("ok", False):
        print(f"error: {section.get('error', 'quiver failed')}",
              file=sys.stderr)
        return 1
    _write(emit_dot(section["labels"], section["arrows"]), args.out)
    _write_dots(report, args.dot)
    return 0


def _cmd_gram(args) -> int:
    report = run_scenario(args.scenario, ensure=("gram",))
    section = report["tasks"]["gram"]
    if not section.get("ok", False):
        print(f"error: {section.get('error', 'gram check failed')}",
              file=sys.stderr)
        return 1
    labels = _gram_labels(report, section)
    _write(gram_text(labels, section["matrix"]), args.out)
    return 0


def _gram_labels(report: dict, section: dict) -> list[str]:
    source = section["collection"]
    task = report["tasks"].get(source)
    if task and "labels" in task:
        return task["labels"]
    size = len(section["matrix"])
    return [f"E{i}" for i in range(size)]


if __name__ == "__main__":
    sys.exit(main())
