"""Behavioural equivalence of the server at one shard and at many.

These tests drive a one-shard and an N-shard server through handcrafted
intake sequences — duplicates, token replays, poisoned records, outages —
and assert both classify *every* envelope identically and produce
byte-identical maintenance output.  The epoch-level pins for every
deployment shape live in ``test_golden_digest.py``; this module is the
precise, per-nuance layer.
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.privacy.identifiers import DeviceIdentity
from repro.privacy.tokens import TokenWallet
from repro.service.server import RSPServer
from repro.world.population import TownConfig, build_town


@pytest.fixture(scope="module")
def town():
    return build_town(TownConfig(n_users=5), seed=20)


def make_pair(town, n_shards, **kwargs):
    mono = RSPServer(catalog=town.entities, key_seed=20, key_bits=256, **kwargs)
    sharded = RSPServer(
        catalog=town.entities,
        key_seed=20,
        key_bits=256,
        n_shards=n_shards,
        **kwargs,
    )
    return mono, sharded


def tokens_for(server, count, device="dev", seed=0):
    wallet = TokenWallet(device_id=device, seed=seed)
    blinded = wallet.mint(server.issuer.public_key, count)
    wallet.accept_signatures(
        server.issuer.public_key, server.issuer.issue(device, blinded, now=0.0)
    )
    return [wallet.spend() for _ in range(count)]


def interaction(identity, entity_id, t=0.0, duration=1800.0):
    return InteractionUpload(
        history_id=identity.history_id(entity_id),
        entity_id=entity_id,
        interaction_type="visit",
        event_time=t,
        duration=duration,
        travel_km=2.0,
    )


def delivery(record, token=None, nonce=None, arrival=1.0):
    return Delivery(
        payload=Envelope(record=record, token=token, nonce=nonce),
        arrival_time=arrival,
        channel_tag="c",
    )


def intake_script(server, town):
    """One fixed, nuance-dense intake sequence; returns per-envelope bools."""
    entities = [e.entity_id for e in town.entities]
    identities = [DeviceIdentity.create(f"u{i}", seed=i) for i in range(4)]
    tokens = tokens_for(server, 12)
    outcomes = []
    day = 86400.0
    # Ordinary accepted interactions across several histories/entities.
    for i, identity in enumerate(identities):
        for k in range(3):
            record = interaction(identity, entities[i % len(entities)], t=k * day)
            outcomes.append(
                server.receive(
                    delivery(
                        record,
                        tokens[3 * i + k],
                        nonce=f"nonce-{i}-{k}".encode(),
                        arrival=k * day + 3600.0,
                    )
                )
            )
    # Exact duplicate (same nonce, replayed spent token): suppressed.
    replay = interaction(identities[0], entities[0], t=0.0)
    outcomes.append(
        server.receive(delivery(replay, tokens[0], nonce=b"nonce-0-0", arrival=9e4))
    )
    # Missing token: rejected.
    outcomes.append(
        server.receive(delivery(interaction(identities[1], entities[1]), None, b"n-a"))
    )
    # Unknown entity: rejected (burns its token, not its nonce).
    [extra] = tokens_for(server, 1, device="dev2", seed=9)
    unknown = InteractionUpload(
        history_id=identities[2].history_id("ghost"),
        entity_id="ghost",
        interaction_type="visit",
        event_time=0.0,
        duration=60.0,
        travel_km=0.0,
    )
    outcomes.append(server.receive(delivery(unknown, extra, nonce=b"n-b")))
    # Opinions for the surviving histories.
    op_tokens = tokens_for(server, 2, device="dev3", seed=11)
    for i in range(2):
        opinion = OpinionUpload(
            history_id=identities[i].history_id(entities[i % len(entities)]),
            entity_id=entities[i % len(entities)],
            rating=4.0 - i,
        )
        outcomes.append(
            server.receive(delivery(opinion, op_tokens[i], nonce=f"n-op{i}".encode()))
        )
    # Explicit reviews on the legacy path.
    server.post_review("reviewer-1", entities[0], 5, time=2 * day)
    server.post_review("reviewer-2", entities[1], 3, time=2 * day)
    return outcomes


def counters(server):
    return {
        "accepted": server.accepted_envelopes,
        "rejected": server.rejected_envelopes,
        "duplicates": server.duplicates_suppressed,
        "n_records": server.n_records,
        "n_histories": server.n_histories,
        "n_opinions": server.n_opinions,
        "n_reviews": server.n_explicit_reviews,
        "n_nonces": server.n_unique_nonces,
    }


class TestIntakeEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_per_envelope_classification_matches(self, town, n_shards):
        mono, sharded = make_pair(town, n_shards)
        assert intake_script(mono, town) == intake_script(sharded, town)
        assert counters(mono) == counters(sharded)

    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_maintenance_and_summaries_match(self, town, n_shards):
        mono, sharded = make_pair(town, n_shards)
        intake_script(mono, town)
        intake_script(sharded, town)
        assert repr(mono.run_maintenance()) == repr(sharded.run_maintenance())
        assert mono.all_summaries() == sharded.all_summaries()
        for entity in town.entities:
            assert mono.summary(entity.entity_id) == sharded.summary(entity.entity_id)
            assert mono.reviews_for(entity.entity_id) == sharded.reviews_for(
                entity.entity_id
            )

    def test_batch_and_single_intake_agree(self, town):
        """``receive_all`` groups by shard; outcomes must not move."""
        one, batch = (
            RSPServer(
                catalog=town.entities,
                key_seed=20,
                key_bits=256,
                n_shards=4,
                require_tokens=False,
            )
            for _ in range(2)
        )
        identity = DeviceIdentity.create("u", seed=1)
        entities = [e.entity_id for e in town.entities]
        deliveries = [
            delivery(interaction(identity, entities[i % 3], t=i * 1000.0), nonce=bytes([i]))
            for i in range(10)
        ]
        # Duplicate of delivery 3 at the end of the batch.
        deliveries.append(
            delivery(interaction(identity, entities[0], t=3000.0), nonce=bytes([3]))
        )
        accepted_single = sum(1 for d in deliveries if one.receive(d))
        accepted_batch = batch.receive_all(deliveries)
        assert accepted_single == accepted_batch
        assert counters(one) == counters(batch)

    def test_dedup_spans_batches(self, town):
        server = RSPServer(
            catalog=town.entities, require_tokens=False, n_shards=4
        )
        identity = DeviceIdentity.create("u", seed=2)
        entity_id = town.entities[0].entity_id
        record = interaction(identity, entity_id)
        assert server.receive_all([delivery(record, nonce=b"same-nonce")]) == 1
        assert server.receive_all([delivery(record, nonce=b"same-nonce")]) == 0
        assert server.duplicates_suppressed == 1
        assert server.n_unique_nonces == 1


class PoisonedKey(str):
    """A history key whose hash explodes inside the store — simulating a
    record that fails mid-dispatch, after all up-front validation."""

    def __hash__(self):
        raise RuntimeError("poisoned record")


class TestTransactionalAccept:
    def test_poisoned_record_neither_counts_nor_burns_nonce(self, town):
        server = RSPServer(
            catalog=town.entities, require_tokens=False, n_shards=4
        )
        identity = DeviceIdentity.create("u", seed=3)
        entity_id = town.entities[0].entity_id
        good = interaction(identity, entity_id)
        poisoned = InteractionUpload(
            history_id=PoisonedKey(good.history_id),
            entity_id=entity_id,
            interaction_type="visit",
            event_time=0.0,
            duration=1800.0,
            travel_km=2.0,
        )
        assert not server.receive(delivery(poisoned, nonce=b"keep-me"))
        assert server.rejected_envelopes == 1
        assert server.accepted_envelopes == 0
        assert server.n_unique_nonces == 0
        # The sender repairs the record and retransmits under the same nonce.
        assert server.receive(delivery(good, nonce=b"keep-me"))
        assert server.accepted_envelopes == 1
        assert server.n_records == 1


class DenyAll:
    def verify(self, quote):
        return False


class TestFacadeParity:
    def test_attestation_denial_matches_monolith(self, town):
        mono, sharded = make_pair(town, 4, attestation=DenyAll())
        for server in (mono, sharded):
            with pytest.raises(PermissionError):
                server.issue_tokens("dev", [1, 2], now=0.0, quote=None)
            assert server.rejected_attestations == 1

    def test_review_for_unknown_entity_raises(self, town):
        _, sharded = make_pair(town, 4)
        with pytest.raises(KeyError):
            sharded.post_review("u", "no-such-entity", 4, time=0.0)

    def test_outage_hook_drops_like_monolith(self, town):
        class DownAfter:
            def server_down(self, now):
                return now >= 100.0

        mono, sharded = make_pair(town, 4, require_tokens=False)
        identity = DeviceIdentity.create("u", seed=4)
        entity_id = town.entities[0].entity_id
        for server in (mono, sharded):
            server.fault_hook = DownAfter()
            assert server.receive(
                delivery(interaction(identity, entity_id), nonce=b"n1", arrival=50.0)
            )
            assert not server.receive(
                delivery(interaction(identity, entity_id, t=1.0), nonce=b"n2", arrival=150.0)
            )
        assert mono.dropped_by_outage == sharded.dropped_by_outage == 1


def test_scale_name_is_the_server_class(town):
    """One server class: the name ``bench/`` imports is the same class object."""
    from repro.scale.server import ShardedRSPServer

    assert ShardedRSPServer is RSPServer
    assert RSPServer(catalog=town.entities, key_bits=256).router.n_shards == 1


def test_lint_guards_the_scale_package():
    """The sharded service is held to the same identity-handling rules as
    the monolithic one — the analyzer must treat it as server code."""
    from repro.analysis import AnalysisConfig

    assert "repro.scale" in AnalysisConfig().service_packages
