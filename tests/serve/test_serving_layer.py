"""The ``server.serving`` facade: laziness, telemetry, and read accessors.

The facade's contracts beyond coherence (which ``test_cache.py`` and
``test_differential.py`` own, with the golden grid in
``tests/scale/test_golden_digest.py``):

* **laziness** — a run that never queries must never construct a serving
  layer, subscribe to maintenance, or emit an ``rsp.serve.*`` metric
  (the golden telemetry pins of query-free runs depend on it);
* **telemetry** — ``rsp.serve.queries/cache_hits/cache_misses/
  invalidations`` count in the AGGREGATE scope; the latency histogram is
  DEPLOYMENT-scoped so it can never leak wall-clock noise into an
  invariant digest;
* **canonical read accessors** — ``all_summaries`` returns entity-id
  order on both deployments, however many entities the last cycle
  recomputed (the engine's cache is insertion-ordered by recompute
  history).
"""

import json

import pytest

from repro.ingest import SyntheticTraffic
from repro.serve.engine import ServeQuery
from repro.serve.facade import ServingLayer
from repro.serve.loadgen import QueryWorkload, SyntheticQueries
from repro.telemetry import AGGREGATE, NULL, Telemetry

from tests.serve.conftest import TRAFFIC, feed, make_server


def serve_metric_names(telemetry):
    rows = json.loads(telemetry.metrics.export_json())
    return sorted(
        {row["name"] for row in rows if row["name"].startswith("rsp.serve.")}
    )


def metric_row(telemetry, name):
    rows = json.loads(telemetry.metrics.export_json())
    (row,) = [r for r in rows if r["name"] == name]
    return row


class TestLaziness:
    @pytest.mark.parametrize("n_shards", [0, 4])
    def test_query_free_runs_never_touch_the_serve_path(self, n_shards):
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(n_shards, catalog=traffic.catalog), traffic)
        assert server._serving is None
        assert server._engine._listeners == []
        assert serve_metric_names(server.telemetry) == []

    def test_first_query_constructs_and_subscribes_once(self):
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(catalog=traffic.catalog), traffic)
        layer = server.serving
        assert layer is server.serving  # one layer, not one per access
        assert len(server._engine._listeners) == 1

    def test_attach_serving_replaces_the_layer(self):
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(catalog=traffic.catalog), traffic)
        queries = SyntheticQueries(
            traffic.catalog, QueryWorkload(n_distinct=16, seed=3)
        ).batch(20)
        first = server.attach_serving()
        for query in queries:
            server.query(query)
        second = server.attach_serving(max_cache_entries=8)
        assert second is server.serving and second is not first
        assert second.cache.max_entries == 8
        for query in queries:
            server.query(query)
        server.receive_all(traffic.batch(400, 5000.0), now=5000.0)
        server.run_maintenance(now=5100.0)
        # The replaced layer stopped listening: only the live cache is
        # invalidated, and the shared counter is its count alone.
        assert server._engine._listeners == [second._on_summaries_changed]
        assert first.stats.invalidations == 0
        assert second.stats.invalidations > 0
        assert (
            server.telemetry.total("rsp.serve.invalidations")
            == second.stats.invalidations
        )

    def test_telemetry_is_read_at_call_time(self):
        # Attaching serving before telemetry still routes metrics to the
        # (later) shared sink — the facade never snapshots the sink.
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(catalog=traffic.catalog), traffic)
        layer = ServingLayer(server)
        assert layer.telemetry is server.telemetry


class TestServeTelemetry:
    def warm_queried_server(self, n_shards=0):
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(n_shards, catalog=traffic.catalog), traffic)
        queries = SyntheticQueries(
            traffic.catalog, QueryWorkload(n_distinct=16, seed=3)
        )
        for query in queries.batch(40):
            server.query(query)
        return server, traffic

    @pytest.mark.parametrize("n_shards", [0, 4])
    def test_counters_mirror_the_cache_stats(self, n_shards):
        server, _ = self.warm_queried_server(n_shards)
        telemetry = server.telemetry
        stats = server.serving.stats
        assert telemetry.total("rsp.serve.queries") == 40
        assert telemetry.total("rsp.serve.cache_hits") == stats.hits
        assert telemetry.total("rsp.serve.cache_misses") == stats.misses
        assert stats.hits + stats.misses == 40
        assert stats.hits > 0  # a 16-query pool over 40 draws must repeat

    def test_invalidations_count_dropped_entries(self):
        server, traffic = self.warm_queried_server()
        before = server.telemetry.total("rsp.serve.invalidations")
        server.receive_all(traffic.batch(400, 5000.0), now=5000.0)
        server.run_maintenance(now=5100.0)
        dropped = server.serving.stats.invalidations
        assert server.telemetry.total("rsp.serve.invalidations") == dropped
        assert dropped > before

    def test_latency_histogram_stays_out_of_the_aggregate_scope(self):
        server, _ = self.warm_queried_server()
        telemetry = server.telemetry
        assert metric_row(telemetry, "rsp.serve.latency")["scope"] == "deployment"
        aggregate_export = telemetry.metrics.export_json(scope=AGGREGATE)
        assert "rsp.serve.latency" not in aggregate_export
        # The result-size histogram *is* aggregate (deployment-invariant).
        assert metric_row(telemetry, "rsp.serve.results")["scope"] == "aggregate"
        assert '"rsp.serve.results"' in aggregate_export


class TestBoundInstruments:
    """The five per-query instruments are bound once per sink, each at
    its first use."""

    def ask(self, server, n=1):
        queries = SyntheticQueries(
            list(server.catalog.values()), QueryWorkload(n_distinct=16, seed=3)
        )
        for query in queries.batch(n):
            server.query(query)

    def test_a_one_query_run_declares_no_hit_row(self):
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(catalog=traffic.catalog), traffic)
        self.ask(server)
        assert serve_metric_names(server.telemetry) == [
            "rsp.serve.cache_misses",
            "rsp.serve.latency",
            "rsp.serve.queries",
            "rsp.serve.results",
        ]

    def test_a_fresh_sink_attached_mid_run_takes_every_later_query(self):
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(catalog=traffic.catalog), traffic)
        first = server.telemetry
        self.ask(server, n=10)
        frozen = first.metrics.export_json()
        second = Telemetry()
        server.attach_telemetry(second)
        self.ask(server, n=10)
        assert first.metrics.export_json() == frozen
        assert second.total("rsp.serve.queries") == 10
        assert second.total("rsp.serve.cache_hits") == 10  # the same 10 again
        assert second.value("rsp.serve.results")["count"] == 10
        assert second.value("rsp.serve.latency")["count"] == 10

    def test_null_telemetry_records_nothing(self):
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(catalog=traffic.catalog), traffic)
        server.attach_telemetry(NULL)
        self.ask(server, n=20)
        assert server.serving.stats.lookups == 20
        assert NULL.export() == {"metrics": [], "spans": []}


class TestCanonicalReadAccessors:
    @pytest.mark.parametrize("n_shards", [0, 4])
    @pytest.mark.parametrize("delta", [0, 1, 400])
    def test_all_summaries_is_entity_id_ordered(self, n_shards, delta):
        """``delta`` records end the feed with one more cycle: none, one
        that re-judges a single entity's kind, or a bulk one.  The order
        holds whatever the last cycle recomputed."""
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(n_shards, catalog=traffic.catalog), traffic)
        if delta:
            server.receive_all(traffic.batch(delta, 2000.0), now=2000.0)
            server.run_maintenance(now=2060.0)
        keys = list(server.all_summaries())
        assert keys == sorted(keys) and keys

    def test_monolith_and_sharded_orders_agree(self):
        t1, t2 = SyntheticTraffic(TRAFFIC), SyntheticTraffic(TRAFFIC)
        monolith = feed(make_server(catalog=t1.catalog), t1)
        sharded = feed(make_server(4, catalog=t2.catalog), t2)
        assert list(monolith.all_summaries()) == list(sharded.all_summaries())
        assert monolith.all_summaries() == sharded.all_summaries()


class TestQueryDelegation:
    def test_server_query_is_the_serving_layers_query(self):
        traffic = SyntheticTraffic(TRAFFIC)
        server = feed(make_server(catalog=traffic.catalog), traffic)
        query = ServeQuery(category="thai", near=traffic.catalog[0].location)
        via_server = server.query(query)
        via_layer = server.serving.query(query)
        assert via_layer is via_server  # second call served from cache
        assert server.serving.stats.hits == 1
