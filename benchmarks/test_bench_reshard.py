"""B10 — live resharding: migration locality + post-split throughput.

The elasticity claim of PR 10: growing a deployment by live splits must
be cheap and leave no scar.  Two measurements against the same intake:

* **locality** — each split migrates only the split shard's own keys,
  so the moved fraction stays at or under ``1 / n_shards`` of the
  catalog (modulo routing would remap nearly everything);
* **no scar** — a 4-shard deployment grown to 8 by four canonical
  splits runs its maintenance cycle within 10% of the throughput of a
  deployment *started* at 8 shards, with byte-identical reports and
  summaries (canonical growth lands on the identical routing table, so
  the state placement is the same — only history remembers the splits).

Emits ``BENCH_10.json`` (consumed by ``make bench-reshard`` and
EXPERIMENTS.md).
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

N_HISTORIES = 16_000
RECORDS_PER_HISTORY = 8
N_SHARDS = 4
N_SHARDS_FINAL = 8
MAX_MOVED_FRACTION = 1.0 / N_SHARDS
MIN_THROUGHPUT_RATIO = 0.9


def build_workload(entities):
    """~130k deliveries over realistic 64-hex record keys."""
    rng = make_rng(BENCH_SEED, "bench/reshard/workload")
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
        hid = hashlib.sha256(f"bench-reshard-{i}".encode()).hexdigest()
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
            opinion = OpinionUpload(
                history_id=hid, entity_id=eid, rating=float(ratings[i])
            )
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


def make_deployment(entities, n_shards):
    return RSPServer(
        catalog=entities,
        key_seed=BENCH_SEED,
        require_tokens=False,
        n_shards=n_shards,
    )


def test_bench_reshard_locality_and_throughput(benchmark):
    town = build_town(TownConfig(n_users=10), seed=BENCH_SEED)
    deliveries = build_workload(town.entities)

    native = make_deployment(town.entities, N_SHARDS_FINAL)
    grown = make_deployment(town.entities, N_SHARDS)
    assert native.receive_all(deliveries) == len(deliveries)
    assert grown.receive_all(deliveries) == len(deliveries)
    total_histories = grown.n_histories

    # Grow 4 → 8 by splitting each original shard once, in canonical
    # order (shallowest prefix first) so the final routing table equals
    # the native 8-shard one exactly.
    split_rows = []
    moved_total = 0
    split_wall = 0.0
    for _ in range(N_SHARDS_FINAL - N_SHARDS):
        target = min(
            range(grown.router.n_shards),
            key=lambda i: min(
                (depth, value) for value, depth in grown.router.prefixes_of(i)
            ),
        )
        start = time.perf_counter()
        moved = grown.split_shard(target)
        elapsed = time.perf_counter() - start
        split_wall += elapsed
        moved_total += moved["histories"]
        fraction = moved["histories"] / total_histories
        split_rows.append((target, moved["histories"], fraction, elapsed))
        assert fraction <= MAX_MOVED_FRACTION, (
            f"split of shard {target} moved {fraction:.1%} of the catalog "
            f"(> {MAX_MOVED_FRACTION:.0%})"
        )
    assert grown.router == native.router
    assert grown.router.n_shards == N_SHARDS_FINAL

    start = time.perf_counter()
    native_report = native.run_maintenance()
    native_s = time.perf_counter() - start

    def grown_cycle():
        return grown.run_maintenance()

    start = time.perf_counter()
    grown_report = benchmark.pedantic(grown_cycle, rounds=1, iterations=1)
    grown_s = time.perf_counter() - start

    # Equivalence first: elasticity bought with drift is worthless.
    assert repr(grown_report) == repr(native_report)
    assert grown.all_summaries() == native.all_summaries()

    throughput_ratio = native_s / grown_s
    emit(comparison_table(
        f"B10: grow {N_SHARDS}→{N_SHARDS_FINAL} shards live, "
        f"{N_HISTORIES} histories x {RECORDS_PER_HISTORY} records",
        ["split", "histories moved", "fraction of catalog", "wall time"],
        [
            [f"shard {t}", m, f"{f:.1%}", f"{s * 1000:.1f}ms"]
            for t, m, f, s in split_rows
        ],
    ))
    emit(comparison_table(
        "B10: post-split maintenance vs natively-sized deployment",
        ["configuration", "maintenance wall time", "relative throughput"],
        [
            [f"native x{N_SHARDS_FINAL}", f"{native_s:.3f}s", "1.00x"],
            [
                f"grown {N_SHARDS}→{N_SHARDS_FINAL}",
                f"{grown_s:.3f}s",
                f"{throughput_ratio:.2f}x",
            ],
        ],
    ))

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_10.json"
    out.write_text(json.dumps(
        {
            "bench": "reshard-locality-throughput",
            "n_histories": N_HISTORIES,
            "records_per_history": RECORDS_PER_HISTORY,
            "n_shards_initial": N_SHARDS,
            "n_shards_final": N_SHARDS_FINAL,
            "splits": [
                {
                    "shard": t,
                    "histories_moved": m,
                    "moved_fraction": round(f, 5),
                    "wall_s": round(s, 4),
                }
                for t, m, f, s in split_rows
            ],
            "histories_moved_total": moved_total,
            "split_wall_s": round(split_wall, 4),
            "max_moved_fraction": MAX_MOVED_FRACTION,
            "native_s": round(native_s, 4),
            "grown_s": round(grown_s, 4),
            "throughput_ratio": round(throughput_ratio, 3),
            "min_throughput_ratio": MIN_THROUGHPUT_RATIO,
        },
        indent=2,
    ) + "\n")

    assert throughput_ratio >= MIN_THROUGHPUT_RATIO, (
        f"post-split maintenance at {throughput_ratio:.2f}x of the native "
        f"deployment (< {MIN_THROUGHPUT_RATIO}x): the grown topology left a scar"
    )
