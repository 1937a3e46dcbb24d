#!/usr/bin/env python
"""Profile one ``run_epochs`` deployment — stdlib only.

Builds the default world at the given size (users, days, seed), trains
the classifier, then runs the same ``run_epochs`` twice: once unprofiled,
to take its wall time, and once under ``cProfile``.  It prints the
unprofiled time beside the profiled one, then the top functions by
cumulative and by self time.  cProfile charges a cost to every Python
call, so call-heavy functions read larger under it than they cost; the
unprofiled time is the one to quote.

Usage::

    PYTHONPATH=src python scripts/profile_epochs.py --users 240 --days 30 --epochs 8
    PYTHONPATH=src python scripts/profile_epochs.py --epochs 16 --top 40 --seed 7
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time


def build(users: int, days: int, seed: int):
    """The world, its pipeline config and a trained classifier."""
    from repro.orchestration.pipeline import PipelineConfig, train_classifier
    from repro.util.clock import DAY
    from repro.world.behavior import BehaviorConfig, BehaviorSimulator
    from repro.world.population import TownConfig, build_town

    town = build_town(TownConfig(n_users=users), seed=seed)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=days), seed=seed
    ).run()
    config = PipelineConfig(horizon_days=float(days), seed=seed)
    classifier = train_classifier(town, result, days * DAY, config.classifier, seed=seed)
    return town, result, config, classifier


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=240)
    parser.add_argument("--days", type=int, default=30)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--serve-queries", type=int, default=200)
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    args = parser.parse_args(argv)

    from repro.orchestration.epochs import run_epochs

    town, result, config, classifier = build(args.users, args.days, args.seed)

    def run():
        return run_epochs(
            town,
            result,
            config,
            n_epochs=args.epochs,
            classifier=classifier,
            serve_queries=args.serve_queries,
        )

    start = time.perf_counter()
    run()
    unprofiled = time.perf_counter() - start

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.runcall(run)
    profiled = time.perf_counter() - start

    print(
        f"run_epochs users={args.users} days={args.days} epochs={args.epochs} "
        f"seed={args.seed}: unprofiled {unprofiled:.3f} s, profiled {profiled:.3f} s"
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
