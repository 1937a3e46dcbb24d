"""B3 — maintenance at one shard, at eight shards, and pooled.

One full maintenance cycle on the same intake at one shard, at eight
shards in-process, and at eight shards across a worker pool, with
byte-identical reports and summaries.  Every configuration runs the same
columnar kernel, so partitioning must cost little: eight serial shards
may take at most :data:`MAX_PARTITION_OVERHEAD` times one shard's cycle.
The pooled cycle is reported, not gated — its gain depends on the
host's cores (on a 2-core host it measured slower than serial, because
forking costs more than four workers gain there).  Emits
``BENCH_3.json`` (consumed by ``make bench-shards`` and EXPERIMENTS.md).
"""

import hashlib
import json
import pathlib
import time

import numpy as np
from _harness import comparison_table, emit

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.service.server import RSPServer
from repro.util.clock import DAY
from repro.util.rng import make_rng
from repro.world.population import TownConfig, build_town

from conftest import BENCH_SEED

N_HISTORIES = 24_000
RECORDS_PER_HISTORY = 12
N_SHARDS = 8
WORKERS = 4
MAX_PARTITION_OVERHEAD = 1.5


def build_workload(entities):
    """~200k deliveries over realistic 64-hex record keys."""
    rng = make_rng(BENCH_SEED, "bench/shards/workload")
    entity_ids = [e.entity_id for e in entities]
    gaps = rng.uniform(0.5 * DAY, 5 * DAY, (N_HISTORIES, RECORDS_PER_HISTORY))
    times = np.cumsum(gaps, axis=1)
    durations = rng.uniform(600.0, 7200.0, (N_HISTORIES, RECORDS_PER_HISTORY))
    travels = rng.uniform(0.1, 20.0, (N_HISTORIES, RECORDS_PER_HISTORY))
    entity_choice = rng.integers(0, len(entity_ids), N_HISTORIES)
    ratings = np.round(rng.uniform(1.0, 5.0, N_HISTORIES), 1)
    deliveries = []
    nonce = 0
    for i in range(N_HISTORIES):
        hid = hashlib.sha256(f"bench-history-{i}".encode()).hexdigest()
        eid = entity_ids[int(entity_choice[i])]
        t_row, d_row, k_row = times[i], durations[i], travels[i]
        for k in range(RECORDS_PER_HISTORY):
            record = InteractionUpload(
                history_id=hid,
                entity_id=eid,
                interaction_type="visit",
                event_time=float(t_row[k]),
                duration=float(d_row[k]),
                travel_km=float(k_row[k]),
            )
            deliveries.append(
                Delivery(
                    payload=Envelope(
                        record=record, token=None, nonce=nonce.to_bytes(16, "big")
                    ),
                    arrival_time=float(t_row[k]) + 3600.0,
                    channel_tag="c",
                )
            )
            nonce += 1
        if i % 3 == 0:
            opinion = OpinionUpload(history_id=hid, entity_id=eid, rating=float(ratings[i]))
            deliveries.append(
                Delivery(
                    payload=Envelope(
                        record=opinion, token=None, nonce=nonce.to_bytes(16, "big")
                    ),
                    arrival_time=float(t_row[-1]) + 7200.0,
                    channel_tag="c",
                )
            )
            nonce += 1
    return deliveries


def test_bench_sharded_maintenance_speedup(benchmark):
    town = build_town(TownConfig(n_users=10), seed=BENCH_SEED)
    deliveries = build_workload(town.entities)

    one = RSPServer(catalog=town.entities, key_seed=BENCH_SEED, require_tokens=False)
    sharded = RSPServer(
        catalog=town.entities,
        key_seed=BENCH_SEED,
        require_tokens=False,
        n_shards=N_SHARDS,
        workers=WORKERS,
    )
    serial = RSPServer(
        catalog=town.entities,
        key_seed=BENCH_SEED,
        require_tokens=False,
        n_shards=N_SHARDS,
        workers=0,
    )
    assert one.receive_all(deliveries) == len(deliveries)
    assert sharded.receive_batch(deliveries) == len(deliveries)
    assert serial.receive_batch(deliveries) == len(deliveries)

    start = time.perf_counter()
    one_report = one.run_maintenance()
    one_s = time.perf_counter() - start

    start = time.perf_counter()
    serial_report = serial.run_maintenance()
    serial_s = time.perf_counter() - start

    def pooled_cycle():
        return sharded.run_maintenance()

    start = time.perf_counter()
    sharded_report = benchmark.pedantic(pooled_cycle, rounds=1, iterations=1)
    sharded_s = time.perf_counter() - start

    # Equivalence first: speed bought with drift is worthless.
    assert repr(sharded_report) == repr(one_report)
    assert repr(serial_report) == repr(one_report)
    assert sharded.all_summaries() == one.all_summaries()
    assert sharded.pool_fallbacks == 0

    speedup = one_s / sharded_s
    serial_speedup = one_s / serial_s
    emit(comparison_table(
        f"B3: maintenance cycle, {N_HISTORIES} histories x {RECORDS_PER_HISTORY} records",
        ["configuration", "maintenance wall time", "speedup"],
        [
            ["one shard", f"{one_s:.3f}s", "1.00x"],
            [f"sharded x{N_SHARDS}, serial", f"{serial_s:.3f}s", f"{serial_speedup:.2f}x"],
            [f"sharded x{N_SHARDS}, {WORKERS} workers", f"{sharded_s:.3f}s", f"{speedup:.2f}x"],
        ],
    ))

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_3.json"
    out.write_text(json.dumps(
        {
            "bench": "sharded-maintenance",
            "n_histories": N_HISTORIES,
            "records_per_history": RECORDS_PER_HISTORY,
            "n_records": one.n_records,
            "n_shards": N_SHARDS,
            "workers": WORKERS,
            "baseline_s": round(one_s, 4),
            "serial_sharded_s": round(serial_s, 4),
            "sharded_s": round(sharded_s, 4),
            "serial_speedup": round(serial_speedup, 3),
            "speedup": round(speedup, 3),
            "max_partition_overhead": MAX_PARTITION_OVERHEAD,
        },
        indent=2,
    ) + "\n")

    assert serial_s <= MAX_PARTITION_OVERHEAD * one_s, (
        f"{N_SHARDS} serial shards took {serial_s / one_s:.2f}x one shard's "
        f"cycle > allowed {MAX_PARTITION_OVERHEAD}x "
        f"({one_s:.3f}s vs {serial_s:.3f}s)"
    )
