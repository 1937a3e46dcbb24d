"""``repro.ingest`` — the million-user intake front end.

Three pieces, composable but independent:

* :mod:`repro.ingest.columnar` — :func:`ingest_all`, the server's one
  intake loop: decode, validate, dedup and dispatch, batched.  Every
  ``RSPServer.receive*`` method runs it, at every shard count.
* :mod:`repro.ingest.queue` — :class:`BoundedIntakeQueue`, admission
  control with deterministic shed-before-journal load-shedding and
  ``rsp.ingest.*`` telemetry.  ``run_epochs(queue_depth=)`` puts it in
  front of the server.
* :mod:`repro.ingest.loadgen` — Zipf-shaped synthetic wire traffic at
  million-user scale; the ``ingest`` benchmark workload replays it.

The intake loop imports no server code (the server is duck-typed), so
:mod:`repro.service` can import it.  The rest is harness-facing
front-end code that sits *in front of* the service layer, and nothing
here imports :mod:`repro.faults`.  See ``docs/SCALING.md`` (ingest
path) and ``docs/OBSERVABILITY.md`` (metric catalog).
"""

from __future__ import annotations

from repro.ingest.columnar import ingest_all
from repro.ingest.loadgen import SyntheticTraffic, WorkloadConfig, synthetic_catalog
from repro.ingest.queue import BoundedIntakeQueue

__all__ = [
    "BoundedIntakeQueue",
    "SyntheticTraffic",
    "WorkloadConfig",
    "ingest_all",
    "synthetic_catalog",
]
