"""Command-line front end: ``python -m repro.analysis`` and ``repro analyze``.

Exit codes: 0 = clean, 1 = findings (including stale baseline entries,
dead inline waivers and unparseable files), 2 = usage errors
(argparse's convention).
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.checkers import all_checks
from repro.analysis.engine import WholeProgramAnalyzer
from repro.analysis.reporters import render_json, render_sarif, render_text

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
        help="comma-separated rule/checker ids to report (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule/checker ids to skip",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON of accepted findings (stale entries of a selected "
        "id fail the run)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to accept exactly the current findings of "
        "the selected ids (other entries are kept)",
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
        help="print every rule/checker id and what it proves, then exit",
    )


class SelectionError(ValueError):
    """A ``--select``/``--ignore`` spelling that cannot mean anything."""


def _csv(raw: str | None) -> set[str] | None:
    if raw is None:
        return None
    return {part.strip() for part in raw.split(",") if part.strip()}


def resolve_selection(select: str | None, ignore: str | None) -> frozenset[str] | None:
    """The ids to report (None: all), from comma-separated id lists, loudly.

    Raises :class:`SelectionError` for an unknown id (a typo would
    otherwise select nothing and turn the CI gate vacuously green), for a
    ``--select``/``--ignore`` value that parses to zero ids (e.g. ``""``
    or ``" , "``), and for a combination that leaves nothing to report.
    """
    selected = _csv(select)
    ignored = _csv(ignore)
    known = [check.checker_id for check in all_checks()]
    for flag, requested in (("--select", selected), ("--ignore", ignored)):
        if requested is None:
            continue
        if not requested:
            raise SelectionError(f"{flag} given but no rule ids parsed from it")
        for rule_id in sorted(requested):
            if rule_id not in known:
                raise SelectionError(f"unknown rule id {rule_id!r} (see --list-checkers)")
    if selected is None and ignored is None:
        return None
    remaining = frozenset(
        rule_id
        for rule_id in known
        if (selected is None or rule_id in selected) and rule_id not in (ignored or ())
    )
    if not remaining:
        raise SelectionError("selection leaves no rules to run")
    return remaining


def list_checkers_text() -> str:
    lines = []
    for check in all_checks():
        lines.append(f"{check.checker_id}: {check.description}")
        if check.rationale:
            lines.append(f"    why: {check.rationale}")
    return "\n".join(lines)


def run_analyze(args: argparse.Namespace) -> int:
    """Execute a parsed analyze invocation; returns the process exit code."""
    if args.list_checkers:
        print(list_checkers_text())
        return 0
    try:
        selected = resolve_selection(args.select, args.ignore)
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
    analyzer = WholeProgramAnalyzer(select=selected, cache_path=args.cache)
    result = analyzer.run(args.paths, baseline=baseline)
    if args.update_baseline:
        document = baseline.updated_with(result.findings + result.baselined, selected)
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
            "static analyzer: per-file privacy, determinism, layering, fault "
            "and durability rules plus whole-program taint and determinism "
            "checkers (docs/STATIC_ANALYSIS.md)"
        ),
    )
    add_analyze_arguments(parser)
    return run_analyze(parser.parse_args(argv))
