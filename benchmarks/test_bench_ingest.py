"""B8 — the million-user intake path: batched ingest vs per-record intake.

The batched front end (``offer_all`` → ``drain`` → ``ingest_all``) must
sustain at least 3x the events/sec of per-record intake (each envelope
offered, drained, and classified individually through
``RSPServer.receive``) over the same synthetic traffic.  Both run the
server's one intake loop, so they must also agree exactly: same server
counters, same opinion summaries.

Two parts:

* **A. intake-path throughput** — 40k Zipf-shaped envelopes from a
  2M-user population through the bounded queue into a tokenless
  one-shard server, per-record vs batched, equivalence asserted before
  the speedup gate.
* **B. sustained-traffic soak** — the soak harness under an overload
  surge: steady-state events/sec, p99 queue wait (load generation
  excluded), p99 per-batch service time, and their p99 sum, with the
  shedder provably engaged at least once.

Emits ``BENCH_8.json`` (consumed by ``make bench-ingest`` and
EXPERIMENTS.md).
"""

import json
import pathlib
import time

from _harness import comparison_table, emit

from repro.faults import FaultInjector, Window, overload_plan
from repro.ingest import (
    BoundedIntakeQueue,
    SoakConfig,
    SyntheticTraffic,
    WorkloadConfig,
    ingest_all,
    run_soak,
)
from repro.service.server import RSPServer
from repro.telemetry import Telemetry

from conftest import BENCH_SEED

MIN_SPEEDUP = 3.0

#: Part A traffic: a 2M-user population with realistic impurities.
TRAFFIC = WorkloadConfig(
    n_users=2_000_000,
    n_entities=300,
    opinion_fraction=0.25,
    duplicate_fraction=0.01,
    stale_fraction=0.01,
    invalid_fraction=0.01,
    seed=BENCH_SEED,
)
N_BATCHES = 5
BATCH_SIZE = 8_000

#: Part B soak: under-provisioned drain plus a 3x surge window.
SOAK = SoakConfig(
    n_users=2_000_000,
    n_entities=300,
    opinion_fraction=0.25,
    duplicate_fraction=0.01,
    stale_fraction=0.01,
    invalid_fraction=0.01,
    ticks=40,
    warmup_ticks=8,
    arrivals_per_tick=6_000,
    drain_limit=6_500,
    queue_depth=10_000,
    seed=BENCH_SEED,
)
SURGE = Window(SOAK.tick_seconds * 20, SOAK.tick_seconds * 28)

COUNTERS = (
    "accepted_envelopes",
    "rejected_envelopes",
    "duplicates_suppressed",
    "opinions_stale",
    "history_mismatches",
    "n_records",
    "n_opinions",
)


def intake_run(batched):
    """Drive the same traffic through the full intake path, one mode."""
    traffic = SyntheticTraffic(TRAFFIC)
    batches = [
        traffic.batch(BATCH_SIZE, 600.0 * tick) for tick in range(N_BATCHES)
    ]
    telemetry = Telemetry()
    server = RSPServer(traffic.catalog, require_tokens=False)
    server.attach_telemetry(telemetry)
    queue = BoundedIntakeQueue(2 * BATCH_SIZE, telemetry=telemetry)
    n = sum(len(batch) for batch in batches)
    start = time.perf_counter()
    if batched:
        for batch in batches:
            queue.offer_all(batch)
            ingest_all(server, queue.drain())
    else:
        for batch in batches:
            for delivery in batch:
                queue.offer(delivery)
                for item in queue.drain():
                    server.receive(item)
    elapsed = time.perf_counter() - start
    return server, n / elapsed, elapsed


def best_of(n, batched):
    """Fastest of ``n`` identical runs — the standard noise filter."""
    runs = [intake_run(batched) for _ in range(n)]
    return max(runs, key=lambda run: run[1])


def test_bench_ingest_path(benchmark):
    # --- Part A: throughput, batched timed under the benchmark fixture.
    # One untimed pass per mode warms allocator, caches, and the kind
    # memo; each mode then reports its best of three runs (the runs are
    # deterministic, so any of them serves the equivalence check).
    intake_run(batched=True)
    intake_run(batched=False)
    per_record_server, per_record_eps, per_record_s = best_of(3, batched=False)

    holder = {}

    def batched_intake():
        holder["result"] = best_of(3, batched=True)

    benchmark.pedantic(batched_intake, rounds=1, iterations=1)
    batched_server, batched_eps, batched_s = holder["result"]

    # Equivalence before speed: identical classification and state.
    for attr in COUNTERS:
        assert getattr(batched_server, attr) == getattr(per_record_server, attr), attr
    per_record_server.run_maintenance(now=10**7)
    batched_server.run_maintenance(now=10**7)
    assert batched_server.all_summaries() == per_record_server.all_summaries()

    speedup = batched_eps / per_record_eps

    # --- Part B: soak under an overload surge; the shedder must engage.
    injector = FaultInjector(overload_plan(SURGE, multiplier=3.0, seed=BENCH_SEED))
    soak = run_soak(SOAK, fault_hook=injector)
    assert soak.shed_engaged, "overload surge never engaged the shedder"
    assert soak.shed > 0
    assert soak.offered == soak.admitted + soak.shed

    emit(comparison_table(
        f"B8: intake path, {N_BATCHES * BATCH_SIZE} envelopes "
        f"({TRAFFIC.n_users:,} users, Zipf {TRAFFIC.zipf_exponent})",
        ["configuration", "events/sec", "relative"],
        [
            ["per-record intake", f"{per_record_eps:,.0f}", "1.00x"],
            ["batched intake", f"{batched_eps:,.0f}", f"{speedup:.2f}x"],
            ["soak steady-state (surge, shedding)",
             f"{soak.steady_events_per_sec:,.0f}",
             f"p99 wait {soak.p99_queue_wait_ms:.2f}ms + "
             f"service {soak.p99_service_ms:.2f}ms, shed {soak.shed:,}"],
        ],
    ))

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_8.json"
    out.write_text(json.dumps(
        {
            "bench": "ingest-path",
            "n_envelopes": N_BATCHES * BATCH_SIZE,
            "n_users": TRAFFIC.n_users,
            "per_record_eps": round(per_record_eps),
            "batched_eps": round(batched_eps),
            "per_record_s": round(per_record_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(speedup, 3),
            "min_speedup": MIN_SPEEDUP,
            "soak": soak.as_dict(),
        },
        indent=2,
    ) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"batched intake {speedup:.2f}x < required {MIN_SPEEDUP}x "
        f"({per_record_eps:,.0f} vs {batched_eps:,.0f} events/sec)"
    )
