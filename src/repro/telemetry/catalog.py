"""Histogram bucket shapes shared by every instrumentation site.

A histogram's buckets are fixed at first use, and every instrumentation
site must declare *identical* shapes for the same metric name or exports
could never be byte-identical across shard counts — so the shapes live
here, once.  The full metric catalog (names, kinds, labels, scopes) is
documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.util.clock import DAY, HOUR

#: ``rsp.intake.batch`` — envelopes handed to ``receive_all`` per call.
INTAKE_BATCH_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500)

#: ``rsp.ingest_lag`` — accepted interaction's arrival minus its
#: (quantized) event time, in simulated seconds.
INGEST_LAG_BUCKETS: tuple[float, ...] = (HOUR, 6 * HOUR, DAY, 2 * DAY, 4 * DAY, 7 * DAY)

#: ``mix.batch_size`` — messages released per mix batch flush.
MIX_BATCH_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200)

#: ``client.upload_delay`` — random submit delay per upload, seconds.
UPLOAD_DELAY_BUCKETS: tuple[float, ...] = (HOUR, 3 * HOUR, 6 * HOUR, 12 * HOUR, DAY)

#: ``rsp.shard.batch`` — per-shard group size within one intake batch.
SHARD_BATCH_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100)

#: ``rsp.pool.chunk`` — task tuples per worker chunk in the pool.
POOL_CHUNK_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16)

#: ``rsp.maintenance.dirty_set`` — entities re-judged per maintenance
#: cycle (the tracked dirty set after profile-digest re-dirtying).
DIRTY_SET_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

#: ``replica.batch`` — WAL records applied per log-shipping batch.
REPLICA_BATCH_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500)

#: ``rsp.ingest.drain`` — envelopes handed to the server per bounded-queue
#: drain; wider than ``rsp.intake.batch`` because the queue exists exactly
#: to absorb bursts far larger than one mix flush.
INGEST_DRAIN_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
)

#: ``rsp.serve.results`` — ranked matches per query before the limit cut.
SERVE_RESULT_BUCKETS: tuple[float, ...] = (0, 1, 2, 5, 10, 20, 50, 100)

#: ``rsp.serve.latency`` — wall-clock seconds per query (deployment scope:
#: real timings are never part of the byte-identity contract).
SERVE_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1,
)

#: ``rsp.reshard.moved`` — state items migrated per split/merge (the sum
#: of the per-kind moved counts; deployment scope — a static deployment
#: reshards zero times, so nothing here may enter the aggregate digest).
RESHARD_MOVED_BUCKETS: tuple[float, ...] = (1, 5, 10, 50, 100, 500, 1000, 5000)

#: ``rsp.reshard.load`` — per-shard history counts observed by the
#: autoscaler when it evaluates a deployment (deployment scope).
RESHARD_LOAD_BUCKETS: tuple[float, ...] = (1, 5, 10, 50, 100, 500, 1000, 5000)
