"""``repro.ingest`` — the million-user intake front end.

Three pieces, composable but independent:

* :mod:`repro.ingest.columnar` — :func:`ingest_all`, the server's one
  intake loop: decode, validate, dedup and dispatch, batched.  Every
  ``RSPServer.receive*`` method runs it, at every shard count.
* :mod:`repro.ingest.queue` — :class:`BoundedIntakeQueue`, admission
  control with deterministic shed-before-journal load-shedding and
  ``rsp.ingest.*`` telemetry.
* :mod:`repro.ingest.loadgen` / :mod:`repro.ingest.soak` — Zipf-shaped
  synthetic wire traffic at million-user scale and the sustained-traffic
  soak harness that measures steady-state events/sec and p99 intake
  latency over it.

The intake loop imports no server code (the server is duck-typed), so
:mod:`repro.service` can import it.  The rest is harness-facing
front-end code that sits *in front of* the service layer, and nothing
here imports :mod:`repro.faults` — overload scenarios come in through
the same duck-typed ``fault_hook`` seam the server uses.  See ``docs/SCALING.md`` (ingest path) and
``docs/OBSERVABILITY.md`` (metric catalog).
"""

from __future__ import annotations

from repro.ingest.columnar import ingest_all
from repro.ingest.loadgen import SyntheticTraffic, WorkloadConfig, synthetic_catalog
from repro.ingest.queue import BoundedIntakeQueue
from repro.ingest.soak import SoakConfig, SoakReport, run_soak

__all__ = [
    "BoundedIntakeQueue",
    "SoakConfig",
    "SoakReport",
    "SyntheticTraffic",
    "WorkloadConfig",
    "ingest_all",
    "run_soak",
    "synthetic_catalog",
]
