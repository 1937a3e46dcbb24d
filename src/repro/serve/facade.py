"""One serving facade at every shard count: ``server.serving``.

:class:`ServingLayer` duck-types its
:class:`~repro.service.server.RSPServer` through two attributes:
``catalog`` and ``_engine`` (the
:class:`~repro.service.incremental.MaintenanceEngine` whose published
``summaries`` and ``panels`` every answer is computed from, and whose
dirty-set notifications drive cache invalidation).  ``telemetry`` is
read off the server at call time, so attaching telemetry before or
after the serving layer both work.

The layer is constructed lazily (``server.serving``): a deployment that
never queries never subscribes, never touches the cache, and never emits
an ``rsp.serve.*`` metric — which keeps the golden telemetry pins for
query-free runs intact.
"""

from __future__ import annotations

import time
from collections.abc import Iterable

from repro.serve.cache import SummaryVersionCache
from repro.serve.engine import QueryEngine, ServeQuery, ServeResponse
from repro.serve.index import SummaryIndex
from repro.serve.ranking import DEFAULT_RANKING, RankingConfig
from repro.telemetry.catalog import SERVE_LATENCY_BUCKETS, SERVE_RESULT_BUCKETS
from repro.telemetry.registry import DEPLOYMENT
from repro.world.geography import CityGrid


class ServingLayer:
    """Indexed, cached reads over a server's live summaries."""

    def __init__(
        self,
        server,
        grid: CityGrid | None = None,
        ranking: RankingConfig = DEFAULT_RANKING,
        max_cache_entries: int = 4096,
    ) -> None:
        self._server = server
        self.index = SummaryIndex(list(server.catalog.values()), grid=grid)
        self.engine = QueryEngine(self.index, ranking)
        self.cache = SummaryVersionCache(max_entries=max_cache_entries)
        server._engine.subscribe(self._on_summaries_changed)

    @property
    def telemetry(self):
        return self._server.telemetry

    @property
    def stats(self):
        return self.cache.stats

    # --------------------------------------------------------- coherence

    def _on_summaries_changed(self, changed_ids: Iterable[str]) -> None:
        dropped = self.cache.invalidate(changed_ids)
        self.telemetry.inc("rsp.serve.invalidations", dropped)

    # ------------------------------------------------------------ reads

    def query(self, query: ServeQuery) -> ServeResponse:
        """Answer from cache when current, else compute and fill."""
        start = time.perf_counter()  # repro: allow[det-wall-clock]
        telemetry = self.telemetry
        entry = self.cache.get(query)
        if entry is not None:
            response: ServeResponse = entry.response
            telemetry.inc("rsp.serve.cache_hits")
        else:
            response = self._compute(query)
            self.cache.put(
                query,
                response,
                self.index.candidate_ids(query.category, query.attribute),
            )
            telemetry.inc("rsp.serve.cache_misses")
        telemetry.inc("rsp.serve.queries")
        telemetry.observe(
            "rsp.serve.results", response.n_matches, buckets=SERVE_RESULT_BUCKETS
        )
        elapsed = time.perf_counter() - start  # repro: allow[det-wall-clock]
        telemetry.observe(
            "rsp.serve.latency",
            elapsed,
            buckets=SERVE_LATENCY_BUCKETS,
            scope=DEPLOYMENT,
        )
        return response

    def query_uncached(self, query: ServeQuery) -> ServeResponse:
        """Fresh recompute bypassing the cache — the coherence oracle.

        Deliberately emits no telemetry and leaves the cache untouched,
        so tests and benchmarks can interleave oracle reads freely.
        """
        return self._compute(query)

    def _compute(self, query: ServeQuery) -> ServeResponse:
        published = self._server._engine
        return self.engine.respond(query, published.summaries, published.panels)
