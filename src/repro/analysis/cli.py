"""Command-line front end: ``python -m repro.analysis`` and ``repro analyze``.

Exit codes mirror ``repro.lint``: 0 = clean, 1 = findings (including
stale baseline entries and unparseable files), 2 = usage errors.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.checkers import default_checkers
from repro.analysis.engine import WholeProgramAnalyzer
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.lint.cli import SelectionError, resolve_selection

DEFAULT_PATHS = ("src/repro",)


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the analyzer options (shared with ``repro analyze``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to analyze (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated checker ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated checker ids to skip",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON of accepted findings (stale entries fail the run)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to accept exactly the current findings",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="incremental fact cache file (omit to analyze cold)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings waived inline or via the baseline",
    )
    parser.add_argument(
        "--show-chains",
        action="store_true",
        help="print the witness call chain under each finding (text format)",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="print every checker id and what it proves, then exit",
    )


def list_checkers_text() -> str:
    lines = []
    for checker in default_checkers():
        lines.append(f"{checker.checker_id}: {checker.description}")
    return "\n".join(lines)


def run_analyze(args: argparse.Namespace) -> int:
    """Execute a parsed analyze invocation; returns the process exit code."""
    if args.list_checkers:
        print(list_checkers_text())
        return 0
    try:
        checkers = resolve_selection(default_checkers(), args.select, args.ignore)
    except SelectionError as exc:
        print(f"error: {exc}")
        return 2
    if args.update_baseline and args.baseline is None:
        print("error: --update-baseline requires --baseline")
        return 2
    try:
        baseline = Baseline.load(args.baseline)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    analyzer = WholeProgramAnalyzer(checkers=checkers, cache_path=args.cache)
    result = analyzer.run(args.paths, baseline=baseline)
    if args.update_baseline:
        document = baseline.updated_with(result.findings + result.baselined)
        if baseline.path is None:
            baseline.path = Path(args.baseline)
        baseline.write(document)
        print(
            f"baseline updated: {len(document['findings'])} accepted finding(s) "
            f"written to {baseline.path}"
        )
        return 0
    if args.format == "json":
        print(render_json(result, show_suppressed=args.show_suppressed))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(
            render_text(
                result,
                show_suppressed=args.show_suppressed,
                show_chains=args.show_chains,
            )
        )
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "whole-program analyzer: call graph, interprocedural privacy "
            "taint, merge-purity and determinism checkers "
            "(docs/STATIC_ANALYSIS.md)"
        ),
    )
    add_analyze_arguments(parser)
    return run_analyze(parser.parse_args(argv))
