"""``repro.serve`` — the read path: indexed discovery at high QPS.

The paper's user-facing half (Section 5, Figure 3) is search: "best X
near Y" over the entity summaries the maintenance cycle keeps fresh.
Plain :meth:`~repro.service.server.RSPServer.search` answers
that by linear-scanning the catalog per query; this package is the
serving layer that makes reads cheap and keeps them cheap across
maintenance cycles:

* :class:`~repro.serve.index.SummaryIndex` — an inverted index over the
  catalog keyed by category x zone ("zipcode") x attribute, so a query
  touches only the entities that could possibly match;
* :class:`~repro.serve.engine.QueryEngine` — ranks the candidates by a
  helpfulness-weighted blend of explicit and inferred opinions
  (:mod:`repro.serve.ranking`) and renders Figure-3-style comparative
  summaries for the top results;
* :class:`~repro.serve.cache.SummaryVersionCache` — a result cache keyed
  by per-entity summary versions and invalidated by the incremental
  engine's mode-invariant dirty sets
  (:meth:`repro.service.incremental.MaintenanceEngine.subscribe`), so a
  warm read is a dict probe and can never be stale;
* :class:`~repro.serve.facade.ServingLayer` — the one facade both
  deployments expose as ``server.serving`` / ``server.query(...)``.

Everything on the read path inherits the repository's byte-identity
contract: for the same intake and maintenance schedule, a query renders
the identical bytes on any shard/worker count, cold
or warm, before and after incremental maintenance — ``tests/serve``
holds the proof obligations, ``docs/SERVING.md`` the design.
"""

from __future__ import annotations

from repro.serve.cache import CachedResult, SummaryVersionCache
from repro.serve.engine import QueryEngine, ServeQuery, ServeResponse, ServeResult
from repro.serve.facade import ServingLayer
from repro.serve.index import SummaryIndex
from repro.serve.loadgen import QueryWorkload, SyntheticQueries
from repro.serve.ranking import RankingConfig, helpfulness_signal, rank_key, serve_score

__all__ = [
    "CachedResult",
    "QueryEngine",
    "QueryWorkload",
    "RankingConfig",
    "ServeQuery",
    "ServeResponse",
    "ServeResult",
    "ServingLayer",
    "SummaryIndex",
    "SummaryVersionCache",
    "SyntheticQueries",
    "helpfulness_signal",
    "rank_key",
    "serve_score",
]
