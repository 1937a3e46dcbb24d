"""Command line: ``python -m bench run|compare`` (see bench/README.md)."""

from __future__ import annotations

import argparse
import sys

from bench import compare, run, worker
from bench.metrics import registry


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["worker"]:
        return worker.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run workloads and print every metric")
    run_parser.add_argument(
        "--workload", nargs="+", action="extend", choices=registry().workloads,
        help="workloads to run (default: all four)",
    )
    run_parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    # The benchmark harness passes BENCHMARK.json's run_seconds here.
    run_parser.add_argument(
        "--seconds", type=float, default=registry().run_seconds,
        help="measure whole passes until this many seconds have passed "
        "(default: run_seconds in BENCHMARK.json)",
    )
    run_parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    run_parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run instead",
    )
    run_parser.add_argument("--out", help="write results.json (and span files) here")
    run_parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes and a single pass, for tests; never recorded",
    )

    compare_parser = commands.add_parser("compare", help="compare two recorded result sets")
    compare_parser.add_argument("a", help="parent: results.json or its directory")
    compare_parser.add_argument("b", help="change: results.json or its directory")

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.compare(args.a, args.b)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return run.run(args)


if __name__ == "__main__":
    sys.exit(main())
