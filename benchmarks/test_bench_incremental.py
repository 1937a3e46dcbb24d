"""B5 — incremental maintenance vs full recompute on a mostly-idle fleet.

The tentpole claim of PR 5: with dirty-entity tracking, a maintenance
cycle whose intake delta touched only a small slice of the catalog must
run at least 2x faster than a from-scratch recompute of the same store —
while producing a byte-identical report and identical summaries.  The
delta here is confined to two small entity kinds (10 of 120 entities,
8.3%), so the profile-digest guard re-dirties only those kinds and the
other 110 entities ride their caches.  Emits ``BENCH_5.json`` (consumed
by ``make bench-incremental`` and EXPERIMENTS.md).
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

from conftest import BENCH_SEED

from repro.world.population import TownConfig, build_town

N_BASE_HISTORIES = 9_000
N_DELTA_HISTORIES = 150
RECORDS_PER_HISTORY = 8
#: The delta is confined to these kinds — 10 of the town's 120 entities.
DELTA_KINDS = ("plastic_surgery", "pediatrics")
REQUIRED_SPEEDUP = 2.0


def build_deliveries(label, entity_ids, n_histories, nonce_base):
    """``n_histories`` realistic multi-record histories over ``entity_ids``."""
    rng = make_rng(BENCH_SEED, f"bench/incremental/{label}")
    gaps = rng.uniform(0.5 * DAY, 5 * DAY, (n_histories, RECORDS_PER_HISTORY))
    times = np.cumsum(gaps, axis=1)
    durations = rng.uniform(600.0, 7200.0, (n_histories, RECORDS_PER_HISTORY))
    travels = rng.uniform(0.1, 20.0, (n_histories, RECORDS_PER_HISTORY))
    entity_choice = rng.integers(0, len(entity_ids), n_histories)
    ratings = np.round(rng.uniform(1.0, 5.0, n_histories), 1)
    deliveries = []
    nonce = nonce_base
    for i in range(n_histories):
        hid = hashlib.sha256(f"bench-{label}-history-{i}".encode()).hexdigest()
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


def test_bench_incremental_maintenance_speedup(benchmark):
    town = build_town(TownConfig(n_users=10), seed=BENCH_SEED)
    all_ids = [e.entity_id for e in town.entities]
    delta_ids = [e.entity_id for e in town.entities if e.kind.label in DELTA_KINDS]
    base = build_deliveries("base", all_ids, N_BASE_HISTORIES, nonce_base=0)
    delta = build_deliveries(
        "delta", delta_ids, N_DELTA_HISTORIES, nonce_base=10_000_000
    )

    incremental = RSPServer(
        catalog=town.entities, key_seed=BENCH_SEED, require_tokens=False
    )
    full = RSPServer(
        catalog=town.entities,
        key_seed=BENCH_SEED,
        require_tokens=False,
        incremental=False,
    )
    assert incremental.receive_all(base) == len(base)
    assert full.receive_all(base) == len(base)
    # Warm cycle: everything is intake-dirty, both modes do full work.
    assert repr(incremental.run_maintenance()) == repr(full.run_maintenance())
    assert incremental.all_summaries() == full.all_summaries()

    # The measured cycle: a delta confined to the two small kinds.
    assert incremental.receive_all(delta) == len(delta)
    assert full.receive_all(delta) == len(delta)

    start = time.perf_counter()
    full_report = full.run_maintenance()
    full_s = time.perf_counter() - start

    def incremental_cycle():
        return incremental.run_maintenance()

    start = time.perf_counter()
    incremental_report = benchmark.pedantic(incremental_cycle, rounds=1, iterations=1)
    incremental_s = time.perf_counter() - start

    # Equivalence first: speed bought with drift is worthless.
    assert repr(incremental_report) == repr(full_report)
    assert incremental.all_summaries() == full.all_summaries()

    dirty_fraction = len(delta_ids) / len(all_ids)
    speedup = full_s / incremental_s
    emit(comparison_table(
        f"B5: delta cycle, {N_DELTA_HISTORIES} new histories on "
        f"{len(delta_ids)}/{len(all_ids)} entities ({dirty_fraction:.1%} dirty)",
        ["configuration", "maintenance wall time", "speedup"],
        [
            ["full recompute", f"{full_s:.3f}s", "1.00x"],
            ["incremental", f"{incremental_s:.3f}s", f"{speedup:.2f}x"],
        ],
    ))

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_5.json"
    out.write_text(json.dumps(
        {
            "bench": "incremental-maintenance",
            "n_base_histories": N_BASE_HISTORIES,
            "n_delta_histories": N_DELTA_HISTORIES,
            "records_per_history": RECORDS_PER_HISTORY,
            "n_records": incremental.n_records,
            "n_entities": len(all_ids),
            "n_dirty_entities": len(delta_ids),
            "dirty_fraction": round(dirty_fraction, 4),
            "full_s": round(full_s, 4),
            "incremental_s": round(incremental_s, 4),
            "speedup": round(speedup, 3),
            "required_speedup": REQUIRED_SPEEDUP,
        },
        indent=2,
    ) + "\n")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"incremental cycle {speedup:.2f}x < required {REQUIRED_SPEEDUP}x "
        f"(full {full_s:.3f}s vs incremental {incremental_s:.3f}s)"
    )
