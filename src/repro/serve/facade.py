"""One serving facade at every shard count: ``server.serving``.

:class:`ServingLayer` duck-types its
:class:`~repro.service.server.RSPServer` through two attributes:
``catalog`` and ``_engine`` (the
:class:`~repro.service.incremental.MaintenanceEngine` whose published
``summaries`` and ``panels`` every answer is computed from, and whose
dirty-set notifications drive cache invalidation).  ``telemetry`` is
read off the server at call time, so attaching telemetry before or
after the serving layer both work: the five per-query instruments are
bound once per sink (:class:`_ServeInstruments`) and rebound when the
server's sink changes.

The layer is constructed lazily (``server.serving``): a deployment that
never queries never subscribes, never touches the cache, and never emits
an ``rsp.serve.*`` metric — which keeps the golden telemetry pins for
query-free runs intact.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from functools import cached_property

from repro.serve.cache import SummaryVersionCache
from repro.serve.engine import QueryEngine, ServeQuery, ServeResponse
from repro.serve.index import SummaryIndex
from repro.serve.ranking import DEFAULT_RANKING, RankingConfig
from repro.telemetry.catalog import SERVE_LATENCY_BUCKETS, SERVE_RESULT_BUCKETS
from repro.telemetry.registry import DEPLOYMENT
from repro.world.geography import CityGrid


class _ServeInstruments:
    """One telemetry sink's per-query serve instruments.

    Each is bound on first access — so the export never gains a row for
    an instrument the run never used (a run that only misses declares no
    ``cache_hits``) — and is a plain attribute read after that.
    """

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry

    @cached_property
    def hits(self):
        return self.telemetry.counter("rsp.serve.cache_hits")

    @cached_property
    def misses(self):
        return self.telemetry.counter("rsp.serve.cache_misses")

    @cached_property
    def queries(self):
        return self.telemetry.counter("rsp.serve.queries")

    @cached_property
    def results(self):
        return self.telemetry.histogram("rsp.serve.results", buckets=SERVE_RESULT_BUCKETS)

    @cached_property
    def latency(self):
        return self.telemetry.histogram(
            "rsp.serve.latency", buckets=SERVE_LATENCY_BUCKETS, scope=DEPLOYMENT
        )


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
        self._instruments = _ServeInstruments(server.telemetry)
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
        """Answer from cache when present, else compute and fill."""
        start = time.perf_counter()  # repro: allow[det-wall-clock]
        instruments = self._instruments
        if instruments.telemetry is not self._server.telemetry:
            instruments = self._instruments = _ServeInstruments(self._server.telemetry)
        response: ServeResponse | None = self.cache.get(query)
        if response is not None:
            instruments.hits.inc()
        else:
            response = self._compute(query)
            self.cache.put(
                query,
                response,
                self.index.candidate_ids(query.category, query.attribute),
            )
            instruments.misses.inc()
        instruments.queries.inc()
        instruments.results.observe(response.n_matches)
        elapsed = time.perf_counter() - start  # repro: allow[det-wall-clock]
        instruments.latency.observe(elapsed)
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
