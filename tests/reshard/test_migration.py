"""Shard state migration: split/merge hand off every record-keyed store.

Each test loads a sharded server through the direct-intake harness,
reshards it, and checks the migration invariants: totals are conserved,
placement matches the post-reshard routing table for every record- and
entity-keyed store, the server-wide nonce, token and dirty sets are left
as they were, only the resharded shards' keys move, and a maintenance
cycle on the migrated deployment produces the same summaries as a
static one.
"""

import pytest

from repro.privacy.tokens import TokenWallet
from repro.reshard import ReshardOp, perform
from repro.telemetry import AGGREGATE, DEPLOYMENT, Telemetry

from tests.durability.conftest import make_server, synth_deliveries

N_DELIVERIES = 48
FINAL_NOW = 10**6


def loaded_server(catalog, n_shards, with_reviews=True):
    server = make_server(catalog, n_shards)
    if with_reviews:
        ids = sorted(entity.entity_id for entity in catalog)
        for k in range(4):
            server.post_review(f"reviewer-{k}", ids[k], 2 + k % 3, 40.0 * (k + 1))
    server.receive_all(synth_deliveries(catalog, 0, N_DELIVERIES))
    return server


def totals(server):
    return {
        "histories": server.n_histories,
        "opinions": sum(len(shard.opinions) for shard in server.shards),
        "reviews": sum(
            len(reviews)
            for shard in server.shards
            for reviews in shard.reviews.values()
        ),
        "nonces": len(server._seen_nonces),
        "tokens": server._redeemer.n_redeemed,
        "dirty": set(server._engine._dirty),
        "accepted": server.accepted_envelopes,
    }


def assert_placement(server):
    """Every record- and entity-keyed piece of state lives on the shard
    the router names."""
    router = server.router
    assert len(server.shards) == router.n_shards
    for position, shard in enumerate(server.shards):
        assert shard.index == position
        for history in shard.store.all_histories():
            assert router.shard_of(history.history_id) == position
        for history_id in shard.opinions:
            assert router.shard_of(history_id) == position
        for entity_id in shard.reviews:
            assert router.shard_of(entity_id) == position


@pytest.mark.parametrize("target", [0, 1, 3])
def test_split_conserves_totals_and_places_every_key(catalog, target):
    server = loaded_server(catalog, n_shards=4)
    before = totals(server)
    source_size = server.shards[target].store.n_histories
    moved = server.split_shard(target)
    assert server.router.n_shards == 5
    assert totals(server) == before
    assert_placement(server)
    # Locality: the split moved state out of the split shard only, and
    # no more of it than the shard held.
    assert 0 <= moved["histories"] <= source_size
    assert moved["histories"] == server.shards[4].store.n_histories


def test_reshard_leaves_server_wide_sets_equal(catalog):
    server = loaded_server(catalog, n_shards=2)
    # The direct-intake harness runs token-free; spend a few tokens so
    # the spent set is not trivially empty.
    wallet = TokenWallet(device_id="dev", seed=3)
    issuer = server.issuer
    blinded = wallet.mint(issuer.public_key, 4)
    wallet.accept_signatures(issuer.public_key, issuer.issue("dev", blinded, now=0.0))
    for _ in range(4):
        assert server._redeemer.redeem(wallet.spend())
    nonces = set(server._seen_nonces)
    spent = set(server._redeemer._spent)
    dirty = set(server._engine._dirty)
    assert nonces and spent and dirty
    for reshard in (lambda: server.split_shard(0), lambda: server.merge_shards(0, 2)):
        reshard()
        # Migration neither loses nor invents a nonce, a spent token or
        # a pending dirty mark (an invented mark would change the
        # engine's tracked set).
        assert server._seen_nonces == nonces
        assert server._redeemer._spent == spent
        assert server._engine._dirty == dirty


@pytest.mark.parametrize("a,b", [(0, 1), (0, 3), (2, 1)])
def test_merge_conserves_totals_and_renumbers(catalog, a, b):
    server = loaded_server(catalog, n_shards=4)
    before = totals(server)
    source_size = server.shards[b].store.n_histories
    moved = server.merge_shards(a, b)
    assert server.router.n_shards == 3
    assert totals(server) == before
    assert_placement(server)
    assert moved["histories"] == source_size


def test_split_then_merge_round_trips_the_deployment(catalog):
    server = loaded_server(catalog, n_shards=3)
    reference = loaded_server(catalog, n_shards=3)
    server.split_shard(1)
    server.merge_shards(1, 3)
    assert server.router == reference.router
    assert totals(server) == totals(reference)
    for ours, theirs in zip(server.shards, reference.shards):
        assert ours.store.n_histories == theirs.store.n_histories
        assert sorted(ours.opinions) == sorted(theirs.opinions)


def test_resharded_maintenance_matches_static(catalog):
    resharded = loaded_server(catalog, n_shards=2)
    static = loaded_server(catalog, n_shards=2)
    resharded.split_shard(0)
    resharded.split_shard(1)
    resharded.merge_shards(0, 2)
    static_report = static.run_maintenance(now=FINAL_NOW)
    resharded_report = resharded.run_maintenance(now=FINAL_NOW)
    assert repr(resharded_report) == repr(static_report)
    assert resharded.all_summaries() == static.all_summaries()


def test_post_split_intake_routes_and_dedupes(catalog):
    server = loaded_server(catalog, n_shards=2)
    server.split_shard(0)
    # Re-deliver the same batch: every envelope is a duplicate and the
    # server-wide nonce table must suppress all of them.
    accepted_before = server.accepted_envelopes
    server.receive_all(synth_deliveries(catalog, 0, N_DELIVERIES))
    assert server.accepted_envelopes == accepted_before
    assert server.duplicates_suppressed >= N_DELIVERIES
    # Fresh records land on the right shards under the new table.
    server.receive_all(synth_deliveries(catalog, N_DELIVERIES, N_DELIVERIES + 12))
    assert_placement(server)


def test_perform_records_history_and_deployment_telemetry(catalog):
    server = loaded_server(catalog, n_shards=2)
    telemetry = Telemetry()
    server.attach_telemetry(telemetry)
    aggregate_before = telemetry.digest(scope=AGGREGATE)
    moved = perform(server, ReshardOp.split(0))
    assert server.reshard_history[-1]["op"] == "split"
    assert server.reshard_history[-1]["seq"] == 0  # no journal attached
    assert len(server.reshard_history) == 1
    assert moved["histories"] > 0
    assert telemetry.value("rsp.reshard.shards") == 3
    assert telemetry.total("rsp.reshard.splits") == 1
    perform(server, ReshardOp.merge(0, 2))
    assert telemetry.total("rsp.reshard.merges") == 1
    # Everything reshard-related is DEPLOYMENT-scoped: the aggregate
    # digest a static deployment is compared against must not move.
    assert telemetry.digest(scope=AGGREGATE) == aggregate_before
    assert "rsp.reshard" in telemetry.export_json(scope=DEPLOYMENT)
