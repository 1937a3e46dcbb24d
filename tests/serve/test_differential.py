"""The read path's byte-identity obligation, at the server.

The claim of :mod:`repro.serve` is that every serving knob is invisible
in the answers.  This suite pins the cache-temperature axis the epoch
driver can only reach implicitly: the same query list answered cold,
warm (from cache), and after a maintenance cycle invalidated part of the
cache, on 1, 4 and 8 shards, clean traffic and chaos — always against
the one-shard uncached recompute oracle — and the AGGREGATE serve
counters (hits, misses, invalidations) are equal across deployments.
The epoch-level pins (serve digest and AGGREGATE telemetry of full runs
at every deployment shape) live in the golden grid,
``tests/scale/test_golden_digest.py``.
"""

import pytest

from repro.ingest import SyntheticTraffic, WorkloadConfig
from repro.serve.loadgen import QueryWorkload, SyntheticQueries
from repro.service.server import RSPServer
from repro.telemetry import AGGREGATE, Telemetry


WORKLOADS = {
    "clean": WorkloadConfig(
        n_users=200, n_entities=40, opinion_fraction=0.35, seed=11
    ),
    "chaos": WorkloadConfig(
        n_users=200,
        n_entities=40,
        opinion_fraction=0.35,
        duplicate_fraction=0.05,
        stale_fraction=0.2,
        invalid_fraction=0.05,
        seed=11,
    ),
}


def query_list(catalog):
    return SyntheticQueries(
        catalog, QueryWorkload(n_distinct=32, seed=13)
    ).batch(30)


def renders(answer, queries):
    return [answer(query).render() for query in queries]


@pytest.mark.parametrize("impurity", ["clean", "chaos"])
@pytest.mark.parametrize("n_shards", [1, 4, 8])
def test_cold_warm_and_post_maintenance_reads_match_the_oracle(
    impurity, n_shards
):
    config = WORKLOADS[impurity]
    t_ref, t_dut = SyntheticTraffic(config), SyntheticTraffic(config)
    reference = RSPServer(t_ref.catalog, require_tokens=False)
    dut = RSPServer(
        t_dut.catalog, n_shards=n_shards, require_tokens=False
    )
    for server in (reference, dut):
        server.attach_telemetry(Telemetry())
    queries = query_list(t_ref.catalog)

    for tick in range(2):
        now = 100.0 + 600.0 * tick
        reference.receive_all(t_ref.batch(500, now), now=now)
        dut.receive_all(t_dut.batch(500, now), now=now)
    reference.run_maintenance(now=2000.0)
    dut.run_maintenance(now=2000.0)

    # Cold: every answer is a fresh compute on both deployments, and the
    # monolith's *uncached* recompute is the oracle for the sharded DUT.
    oracle = renders(reference.serving.query_uncached, queries)
    cold = renders(dut.query, queries)
    assert cold == oracle
    assert dut.serving.stats.hits > 0  # the Zipf draw repeats queries

    # Warm: the same list again, now served (partly) from cache.
    hits_before = dut.serving.stats.hits
    warm = renders(dut.query, queries)
    assert warm == cold
    assert dut.serving.stats.hits == hits_before + len(queries)
    # The monolith's cached read path agrees with its own oracle too.
    assert renders(reference.query, queries) == oracle

    # Post-maintenance: new evidence lands, the dirty sets invalidate,
    # and the warm caches must converge on the new truth.
    reference.receive_all(t_ref.batch(800, 3000.0), now=3000.0)
    dut.receive_all(t_dut.batch(800, 3000.0), now=3000.0)
    reference.run_maintenance(now=3100.0)
    dut.run_maintenance(now=3100.0)
    assert dut.serving.stats.invalidations > 0
    post_oracle = renders(reference.serving.query_uncached, queries)
    post = renders(dut.query, queries)
    assert post == post_oracle
    assert post != cold  # the new evidence actually changed answers


def test_aggregate_serve_counters_match_across_deployments():
    """Same workload, same queries: monolith and sharded deployments must
    report byte-identical AGGREGATE exports — hits, misses, and
    invalidations included."""
    exports = []
    for n_shards in (0, 4):
        traffic = SyntheticTraffic(WORKLOADS["chaos"])
        if n_shards:
            server = RSPServer(
                traffic.catalog, n_shards=n_shards, require_tokens=False
            )
        else:
            server = RSPServer(traffic.catalog, require_tokens=False)
        server.attach_telemetry(Telemetry())
        queries = query_list(traffic.catalog)
        for tick in range(3):
            now = 100.0 + 600.0 * tick
            server.receive_all(traffic.batch(400, now), now=now)
            server.run_maintenance(now=now + 60.0)
            for query in queries:
                server.query(query)
        exports.append(server.telemetry.metrics.export_json(scope=AGGREGATE))
    assert exports[0] == exports[1]
