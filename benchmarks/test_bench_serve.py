"""B9 — the read path: cached serving vs per-query recompute.

The tentpole acceptance gate of PR 9: the summary-version cache must
make warm reads at least 5x faster than uncached recompute while the
deployment keeps churning — small intake batches (≤10% of the catalog
dirty between maintenance rounds) with a maintenance cycle before every
query burst, so invalidation is constantly in play.  The Zipf query
workload (:mod:`repro.serve.loadgen`, the read mirror of
``repro.ingest.loadgen``) must land a ≥90% cache hit rate: the pool is
finite and heavy-tailed, so cold misses are bounded and the steady state
is hits.

Three parts:

* **A. equivalence before speed** — on a fresh serving layer, every
  cached read renders byte-identically to the uncached recompute oracle;
* **B. steady-state read QPS** — timed under the benchmark fixture:
  rounds of (Zipf intake → maintenance → query burst) against the cached
  path, with the dirty fraction of every cycle recorded off the
  maintenance notification feed;
* **C. the uncached baseline** — Part B's queries, recorded burst by
  burst and replayed in order, answered by fresh recompute: the speedup
  denominator, measured on exactly the queries the numerator timed.

Both paths are reported per query, in µs, beside the totals.

Emits ``BENCH_9.json`` (consumed by ``make bench-serve`` and
EXPERIMENTS.md).
"""

import json
import pathlib
import time

from _harness import comparison_table, emit

from repro.ingest import SyntheticTraffic, WorkloadConfig
from repro.serve.loadgen import QueryWorkload, SyntheticQueries
from repro.service.server import RSPServer
from repro.telemetry import Telemetry

from conftest import BENCH_SEED

MIN_SPEEDUP = 5.0
MIN_HIT_RATE = 0.90
MAX_DIRTY_FRACTION = 0.10

TRAFFIC = WorkloadConfig(
    n_users=100_000,
    n_entities=1_200,
    opinion_fraction=0.30,
    seed=BENCH_SEED,
)
QUERIES = QueryWorkload(n_distinct=64, zipf_exponent=1.1, seed=BENCH_SEED)

#: Steady-state shape: per round, a small intake batch (Zipf over 300
#: entities, so well under the 10%-dirty ceiling), one maintenance
#: cycle, then a read-heavy burst.
WARMUP_BATCHES = 3
WARMUP_BATCH_SIZE = 2_000
ROUNDS = 4
INTAKE_PER_ROUND = 40
QUERIES_PER_ROUND = 1_000


def build_server():
    """A warmed tokenless one-shard server: traffic in, summaries computed."""
    traffic = SyntheticTraffic(TRAFFIC)
    server = RSPServer(traffic.catalog, require_tokens=False)
    server.attach_telemetry(Telemetry())
    for tick in range(WARMUP_BATCHES):
        now = 100.0 + 600.0 * tick
        server.receive_all(traffic.batch(WARMUP_BATCH_SIZE, now), now=now)
    server.run_maintenance(now=3000.0)
    return server, traffic


def steady_state_cached(server, traffic):
    """Part B: rounds of churn + burst.

    Returns ``(qps, elapsed, dirty_fracs, asked)``, ``asked`` being every
    timed query in the order it was answered.
    """
    queries = SyntheticQueries(traffic.catalog, QUERIES)
    serving = server.serving
    dirty_fractions = []
    asked = []
    serving_time = 0.0
    n_entities = len(server.catalog)
    server._engine.subscribe(
        lambda changed: dirty_fractions.append(len(changed) / n_entities)
    )
    for round_index in range(ROUNDS):
        now = 10_000.0 + 600.0 * round_index
        server.receive_all(traffic.batch(INTAKE_PER_ROUND, now), now=now)
        server.run_maintenance(now=now + 60.0)
        burst = queries.batch(QUERIES_PER_ROUND)
        asked.extend(burst)
        start = time.perf_counter()
        for query in burst:
            serving.query(query)
        serving_time += time.perf_counter() - start
    total = ROUNDS * QUERIES_PER_ROUND
    return total / serving_time, serving_time, dirty_fractions, asked


def uncached_baseline(server, asked):
    """Part C: Part B's queries, in order, each answered by fresh recompute."""
    serving = server.serving
    start = time.perf_counter()
    for query in asked:
        serving.query_uncached(query)
    elapsed = time.perf_counter() - start
    return len(asked) / elapsed, elapsed


def test_bench_serve_read_path(benchmark):
    server, traffic = build_server()

    # --- Part A: equivalence before speed.
    probe = SyntheticQueries(traffic.catalog, QUERIES)
    for query in probe.batch(100):
        assert (
            server.query(query).render()
            == server.serving.query_uncached(query).render()
        )
    # Cold-start the cache again so Part B's hit rate is the workload's,
    # not the probe's.
    server.attach_serving()

    # --- Part B: steady-state cached reads under churn, timed.
    holder = {}

    def cached_phase():
        holder["result"] = steady_state_cached(server, traffic)

    benchmark.pedantic(cached_phase, rounds=1, iterations=1)
    cached_qps, cached_s, dirty_fractions, asked = holder["result"]

    stats = server.serving.stats
    hit_rate = stats.hit_rate()
    assert stats.lookups == ROUNDS * QUERIES_PER_ROUND
    dirty_fraction = max(dirty_fractions) if dirty_fractions else 0.0
    assert dirty_fractions, "maintenance cycles never notified the cache"
    assert stats.invalidations > 0, "churn never invalidated a cached read"

    # --- Part C: the uncached recompute baseline.
    uncached_qps, uncached_s = uncached_baseline(server, asked)
    speedup = cached_qps / uncached_qps
    cached_us = 1e6 / cached_qps
    uncached_us = 1e6 / uncached_qps

    emit(comparison_table(
        f"B9: read path, {ROUNDS * QUERIES_PER_ROUND} Zipf queries over "
        f"{QUERIES.n_distinct} distinct ({TRAFFIC.n_entities} entities, "
        f"{ROUNDS} churn rounds)",
        ["configuration", "reads/sec", "us/query", "relative"],
        [
            ["uncached recompute", f"{uncached_qps:,.0f}", f"{uncached_us:.1f}", "1.00x"],
            ["cached serving layer", f"{cached_qps:,.0f}", f"{cached_us:.1f}",
             f"{speedup:.2f}x"],
            ["cache hit rate", f"{hit_rate:.1%}", "",
             f"{stats.invalidations} invalidations, "
             f"max dirty {dirty_fraction:.1%}"],
        ],
    ))

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_9.json"
    out.write_text(json.dumps(
        {
            "bench": "serve-read-path",
            "n_queries": ROUNDS * QUERIES_PER_ROUND,
            "n_distinct": QUERIES.n_distinct,
            "zipf_exponent": QUERIES.zipf_exponent,
            "read_qps_cached": round(cached_qps),
            "read_qps_uncached": round(uncached_qps),
            "cached_queries": ROUNDS * QUERIES_PER_ROUND,
            "uncached_queries": len(asked),
            "cached_s": round(cached_s, 4),
            "uncached_s": round(uncached_s, 4),
            "cached_us_per_query": round(cached_us, 2),
            "uncached_us_per_query": round(uncached_us, 2),
            "speedup": round(speedup, 3),
            "min_speedup": MIN_SPEEDUP,
            "hit_rate": round(hit_rate, 4),
            "min_hit_rate": MIN_HIT_RATE,
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
            "invalidations": stats.invalidations,
            "max_dirty_fraction": round(dirty_fraction, 4),
            "max_dirty_fraction_allowed": MAX_DIRTY_FRACTION,
        },
        indent=2,
    ) + "\n")

    assert dirty_fraction <= MAX_DIRTY_FRACTION, (
        f"churn dirtied {dirty_fraction:.1%} of the catalog per cycle; the "
        f"speedup gate is only claimed at <={MAX_DIRTY_FRACTION:.0%} dirty"
    )
    assert hit_rate >= MIN_HIT_RATE, (
        f"cache hit rate {hit_rate:.1%} < required {MIN_HIT_RATE:.0%}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"cached reads {speedup:.2f}x < required {MIN_SPEEDUP}x "
        f"({cached_qps:,.0f} vs {uncached_qps:,.0f} reads/sec)"
    )
