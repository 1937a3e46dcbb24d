#!/usr/bin/env python
"""Line-coverage floor for a ``src/repro`` package — stdlib only.

The container has no ``coverage``/``pytest-cov``, so this gate measures
line coverage with ``sys.settrace`` directly: the denominator is the set
of executable lines reported by each compiled module's ``co_lines()``,
the numerator is the set of lines actually hit while the selected test
suite runs in-process.

Usage::

    PYTHONPATH=src python scripts/coverage_gate.py --fail-under 85
    PYTHONPATH=src python scripts/coverage_gate.py --target telemetry
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Gated packages: name -> (source tree, default pytest targets).  The
#: server class lives in ``repro.service`` and its intake loop in
#: ``repro.ingest``; the suites that drive them follow the code.
TARGETS = {
    "scale": (SRC / "repro" / "scale", ["tests/scale"]),
    "telemetry": (SRC / "repro" / "telemetry", ["tests/telemetry"]),
    "service": (
        SRC / "repro" / "service",
        [
            "tests/service",
            "tests/spec",
            "tests/scale/test_sharded_server.py",
        ],
    ),
    "analysis": (SRC / "repro" / "analysis", ["tests/analysis", "tests/lint"]),
    "durability": (
        SRC / "repro" / "durability",
        ["tests/durability", "tests/reshard/test_reshard_recovery.py"],
    ),
    "ingest": (
        SRC / "repro" / "ingest",
        ["tests/ingest", "tests/spec", "tests/scale/test_batch_routing.py"],
    ),
    "serve": (SRC / "repro" / "serve", ["tests/serve"]),
    "reshard": (SRC / "repro" / "reshard", ["tests/reshard"]),
    "sensing": (
        SRC / "repro" / "sensing",
        ["tests/sensing", "tests/orchestration/test_linear_sensing.py"],
    ),
}


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        # line 0 is the compiler's module-preamble pseudo-line, not source
        lines.update(line for _, _, line in obj.co_lines() if line)
        stack.extend(const for const in obj.co_consts if isinstance(const, type(code)))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fail-under", type=float, default=85.0)
    parser.add_argument(
        "--target",
        choices=sorted(TARGETS),
        default="scale",
        help="which src/repro package to gate (default: scale)",
    )
    parser.add_argument(
        "--tests",
        nargs="*",
        default=None,
        help="pytest targets to run under the trace (default: the target's suite)",
    )
    args = parser.parse_args()
    target_dir, default_tests = TARGETS[args.target]
    tests = args.tests if args.tests is not None else default_tests

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import pytest

    prefix = str(target_dir) + os.sep
    hits: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if event == "line":
            hits.setdefault(filename, set()).add(frame.f_lineno)
        return tracer

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        exit_code = pytest.main(["-q", "--no-header", "-p", "no:cacheprovider", *tests])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    if exit_code != 0:
        print(f"coverage gate: test run failed (pytest exit {exit_code})")
        return int(exit_code)

    total_lines = 0
    total_hit = 0
    rows = []
    for path in sorted(target_dir.rglob("*.py")):
        lines = executable_lines(path)
        hit = hits.get(str(path), set()) & lines
        total_lines += len(lines)
        total_hit += len(hit)
        percent = 100.0 * len(hit) / len(lines) if lines else 100.0
        missing = sorted(lines - hit)
        rows.append((path.relative_to(ROOT), len(lines), len(hit), percent, missing))

    print(f"\n{'file':<40} {'lines':>6} {'hit':>6} {'cover':>7}")
    for rel, n_lines, n_hit, percent, missing in rows:
        print(f"{str(rel):<40} {n_lines:>6} {n_hit:>6} {percent:>6.1f}%")
        if missing and percent < 100.0:
            shown = ",".join(map(str, missing[:12]))
            more = f" (+{len(missing) - 12} more)" if len(missing) > 12 else ""
            print(f"    missing: {shown}{more}")

    total = 100.0 * total_hit / total_lines if total_lines else 100.0
    rel_target = target_dir.relative_to(ROOT)
    print(f"\nTOTAL {rel_target}: {total_hit}/{total_lines} lines = {total:.1f}%")
    if total < args.fail_under:
        print(f"coverage gate: {total:.1f}% < --fail-under {args.fail_under:.1f}%")
        return 1
    print(f"coverage gate: OK (floor {args.fail_under:.1f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
