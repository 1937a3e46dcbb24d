#!/usr/bin/env python
"""Profile one full-size pass of a benchmark workload — stdlib only.

Builds the workload's inputs from the seed exactly as ``python -m bench
run`` does (``bench.workloads``, imported read-only), then runs the same
untraced pass twice in this process: once unprofiled, to take its
``run_s``, and once under ``cProfile``.  It prints both times and
whether each pass passed its checks and reproduced the pinned digests,
then the top functions by cumulative and by self time.  cProfile charges
a cost to every Python call, so call-heavy functions read larger under
it than they cost; the unprofiled time is the one to quote (and it is a
single pass on this machine, not the benchmark's speed-scaled median).

Usage::

    PYTHONPATH=src python scripts/profile_workload.py --workload reads-cold
    PYTHONPATH=src python scripts/profile_workload.py --workload ingest --top 40 --seed 7
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import pstats
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.workloads import WORKLOADS, Pass, SetupWatch, pin_failures  # noqa: E402


def run_pass(workload, inputs, workdir: Path, profiler: cProfile.Profile | None):
    """One untraced pass; returns it with its wall time around the whole pass."""
    gc.collect()
    p = Pass(workdir=workdir)
    start = time.perf_counter()
    if profiler is None:
        workload.run_pass(inputs, p)
    else:
        profiler.runcall(workload.run_pass, inputs, p)
    return p, time.perf_counter() - start


def verdict(name: str, seed: int, smoke: bool, p: Pass) -> str:
    problems = p.failures + pin_failures(name, seed, smoke, p.digests)
    return "ok" if not problems else "FAILED: " + "; ".join(problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--smoke", action="store_true", help="the tiny smoke size")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, workload.sizes[args.smoke], SetupWatch())
    # As in the benchmark worker: keep the pre-generated load out of the
    # collector's reach during the passes.
    gc.collect()
    gc.freeze()

    workdir = Path(tempfile.mkdtemp(prefix=f"profile-{args.workload}-"))
    profiler = cProfile.Profile()
    try:
        plain, plain_wall = run_pass(workload, inputs, workdir, None)
        profiled, profiled_wall = run_pass(workload, inputs, workdir, profiler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"{args.workload} seed={args.seed}{' smoke' if args.smoke else ''}: "
        f"unprofiled run_s {plain.run_s:.3f} s (pass {plain_wall:.3f} s, "
        f"{verdict(args.workload, args.seed, args.smoke, plain)}), "
        f"profiled run_s {profiled.run_s:.3f} s (pass {profiled_wall:.3f} s, "
        f"{verdict(args.workload, args.seed, args.smoke, profiled)})"
    )
    for order, title in (("cumulative", "cumulative time"), ("tottime", "self time")):
        out = io.StringIO()
        pstats.Stats(profiler, stream=out).sort_stats(order).print_stats(args.top)
        print(f"\n== top {args.top} by {title} ==")
        # Drop pstats' preamble (the call total and the ordering note).
        text = out.getvalue()
        print(text[text.index("   ncalls") :].rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
