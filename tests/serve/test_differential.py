"""The read path's byte-identity obligation, across the deployment matrix.

The claim of :mod:`repro.serve` is that every serving knob is invisible
in the answers: 1/4/8 shards, cold vs warm cache, before vs
after incremental maintenance, clean traffic vs chaos — the rendered
responses are byte-identical, and the run-level ``serve_digest`` (plus
the AGGREGATE telemetry export, which now carries the ``rsp.serve.*``
counters) is deployment-invariant.

Two layers:

* the **epoch-level matrix** drives the full pipeline with
  ``serve_queries`` on, clean and under the chaos plan, across shard
  and incremental configurations, asserting equal
  ``serve_digest`` and equal AGGREGATE telemetry;
* the **direct server matrix** pins the cache-temperature axis the epoch
  driver can only reach implicitly: the same query list answered cold,
  warm (from cache), and after a maintenance cycle invalidated part of
  the cache — always against the one-shard uncached recompute oracle.
"""

import pytest

from repro.faults import DropFault, DuplicateFault, FaultPlan, Window
from repro.ingest import SyntheticTraffic, WorkloadConfig
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.uploads import RetransmitPolicy
from repro.scale.server import ShardedRSPServer
from repro.serve.loadgen import QueryWorkload, SyntheticQueries
from repro.service.server import RSPServer
from repro.telemetry import AGGREGATE, Telemetry
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

HORIZON_DAYS = 28.0
HORIZON = HORIZON_DAYS * DAY
N_EPOCHS = 3
MAX_USERS = 8
SERVE_QUERIES = 10

CHAOS = FaultPlan(
    seed=17,
    drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.05),),
    duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), 0.10),),
)
RETRY = RetransmitPolicy(max_attempts=2, min_interval=6 * HOUR)


# ------------------------------------------------------- epoch-level matrix


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def run(
    world,
    n_shards=1,
    incremental=True,
    plan=None,
    retransmit=None,
):
    town, result, classifier = world
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=5, retransmit=retransmit)
    return run_epochs(
        town,
        result,
        config,
        n_epochs=N_EPOCHS,
        classifier=classifier,
        max_users=MAX_USERS,
        fault_plan=plan,
        n_shards=n_shards,
        incremental=incremental,
        serve_queries=SERVE_QUERIES,
    )


def assert_equivalent(baseline, candidate):
    assert candidate.serve_digest == baseline.serve_digest
    assert candidate.reports_digest() == baseline.reports_digest()
    assert candidate.server.all_summaries() == baseline.server.all_summaries()
    # The AGGREGATE scope now carries rsp.serve.queries/cache_hits/
    # cache_misses/invalidations and the result-size histogram, so this
    # asserts the *cache behaviour* — not just the answers — is
    # deployment-invariant (same hits, same misses, same evictions).
    assert candidate.telemetry.digest(scope=AGGREGATE) == baseline.telemetry.digest(
        scope=AGGREGATE
    )


@pytest.fixture(scope="module")
def clean_baseline(world):
    return run(world)


@pytest.fixture(scope="module")
def chaos_baseline(world):
    return run(world, plan=CHAOS, retransmit=RETRY)


class TestCleanMatrix:
    @pytest.mark.parametrize("n_shards", [4, 8])
    def test_sharded_serving_is_indistinguishable(
        self, world, clean_baseline, n_shards
    ):
        outcome = run(world, n_shards=n_shards)
        assert_equivalent(clean_baseline, outcome)

    def test_full_recompute_serving_is_indistinguishable(
        self, world, clean_baseline
    ):
        assert_equivalent(clean_baseline, run(world, incremental=False))

    def test_baseline_is_not_vacuous(self, clean_baseline):
        assert clean_baseline.serve_digest is not None
        assert clean_baseline.server.n_records > 0
        telemetry = clean_baseline.telemetry
        assert telemetry.total("rsp.serve.queries") == N_EPOCHS * SERVE_QUERIES
        # The Zipf pool repeats across epochs, so the cache must warm up.
        assert telemetry.total("rsp.serve.cache_hits") > 0
        assert telemetry.total("rsp.serve.invalidations") > 0


class TestChaosMatrix:
    @pytest.mark.parametrize("n_shards", [4, 8])
    def test_sharded_serving_under_chaos_is_indistinguishable(
        self, world, chaos_baseline, n_shards
    ):
        outcome = run(world, n_shards=n_shards, plan=CHAOS, retransmit=RETRY)
        assert_equivalent(chaos_baseline, outcome)

    def test_chaos_actually_bites_and_still_serves(
        self, clean_baseline, chaos_baseline
    ):
        assert chaos_baseline.injector.messages_dropped > 0
        assert chaos_baseline.server.duplicates_suppressed > 0
        assert chaos_baseline.serve_digest is not None
        # Chaos changes the ingested evidence, so the served answers must
        # differ from the clean run's — equal digests here would mean the
        # serve hash is not actually folding the responses in.
        assert chaos_baseline.serve_digest != clean_baseline.serve_digest


# --------------------------------------------------- direct server matrix


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
    dut = ShardedRSPServer(
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
            server = ShardedRSPServer(
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
