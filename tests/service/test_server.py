"""Tests for the RSP server: intake, maintenance, queries."""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.privacy.identifiers import DeviceIdentity
from repro.privacy.tokens import TokenWallet, UploadToken
from repro.serve.engine import ServeQuery
from repro.service.server import RSPServer
from repro.telemetry import Telemetry
from repro.util.clock import DAY
from repro.world.population import TownConfig, build_town


@pytest.fixture()
def server_and_town():
    town = build_town(TownConfig(n_users=5), seed=20)
    server = RSPServer(catalog=town.entities, key_seed=20, key_bits=256)
    return server, town


def token_for(server, device="dev", seed=0, count=1):
    wallet = TokenWallet(device_id=device, seed=seed)
    blinded = wallet.mint(server.issuer.public_key, count)
    wallet.accept_signatures(
        server.issuer.public_key, server.issuer.issue(device, blinded, now=0.0)
    )
    return [wallet.spend() for _ in range(count)]


def delivery_of(record, token, arrival=1.0):
    return Delivery(payload=Envelope(record=record, token=token), arrival_time=arrival, channel_tag="c")


def interaction_record(identity, entity_id, t=0.0, duration=1800.0, travel=2.0):
    return InteractionUpload(
        history_id=identity.history_id(entity_id),
        entity_id=entity_id,
        interaction_type="visit",
        event_time=t,
        duration=duration,
        travel_km=travel,
    )


class TestIntake:
    def test_valid_envelope_stored(self, server_and_town):
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        [token] = token_for(server)
        assert server.receive(delivery_of(interaction_record(identity, entity_id), token))
        assert server.n_records == 1

    def test_missing_token_rejected(self, server_and_town):
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        assert not server.receive(delivery_of(interaction_record(identity, entity_id), None))
        assert server.rejected_envelopes == 1

    def test_forged_token_rejected(self, server_and_town):
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        forged = UploadToken(token_id=b"fake", signature=99)
        assert not server.receive(delivery_of(interaction_record(identity, entity_id), forged))

    def test_replayed_token_rejected(self, server_and_town):
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        [token] = token_for(server)
        record = interaction_record(identity, entity_id)
        assert server.receive(delivery_of(record, token))
        assert not server.receive(delivery_of(record, token))

    def test_unknown_entity_rejected(self, server_and_town):
        server, _ = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        [token] = token_for(server)
        record = interaction_record(identity, "no-such-entity")
        assert not server.receive(delivery_of(record, token))

    def test_opinion_uploads_accepted(self, server_and_town):
        server, town = server_and_town
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        [token] = token_for(server)
        opinion = OpinionUpload(
            history_id=identity.history_id(entity_id), entity_id=entity_id, rating=4.0
        )
        assert server.receive(delivery_of(opinion, token))
        assert server.n_opinions == 1

    def test_tokens_optional_when_disabled(self):
        town = build_town(TownConfig(n_users=3), seed=21)
        server = RSPServer(catalog=town.entities, key_seed=21, key_bits=256, require_tokens=False)
        identity = DeviceIdentity.create("u", seed=1)
        record = interaction_record(identity, town.entities[0].entity_id)
        assert server.receive(delivery_of(record, None))

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_non_string_history_id_is_malformed(self, n_shards):
        """Regression: one shard used to store such a record while more
        shards bounced it as a store error.  It is malformed at every shard
        count, is never stored, and leaves its nonce unburned."""
        town = build_town(TownConfig(n_users=3), seed=21)
        server = RSPServer(catalog=town.entities, require_tokens=False, n_shards=n_shards)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        entity_id = town.entities[0].entity_id
        record = InteractionUpload(
            history_id=12345,
            entity_id=entity_id,
            interaction_type="visit",
            event_time=0.0,
            duration=60.0,
            travel_km=1.0,
        )
        opinion = OpinionUpload(history_id=12346, entity_id=entity_id, rating=4.0)
        envelope = Envelope(record=record, token=None, nonce=b"n" * 16)
        assert not server.receive(Delivery(envelope, arrival_time=1.0, channel_tag="c"))
        batch = [Delivery(Envelope(opinion, None, b"m" * 16), 2.0, "c")]
        assert server.receive_all(batch) == 0
        assert server.rejected_envelopes == 2
        assert telemetry.value("rsp.envelopes.rejected", reason="malformed") == 2
        assert server.n_records == server.n_opinions == server.n_unique_nonces == 0
        identity = DeviceIdentity.create("u", seed=1)
        retry = Envelope(interaction_record(identity, entity_id), None, b"n" * 16)
        assert server.receive(Delivery(retry, arrival_time=3.0, channel_tag="c"))

    def test_post_review_validates_entity(self, server_and_town):
        server, town = server_and_town
        server.post_review("alice", town.entities[0].entity_id, 4, time=0.0)
        assert server.n_explicit_reviews == 1
        with pytest.raises(KeyError):
            server.post_review("alice", "ghost", 4, time=0.0)


class TestMaintenanceAndSearch:
    def fill(self, server, town, n_users=12):
        target = town.entities[0]
        tokens = token_for(server, count=n_users * 3, device="filler")
        token_iter = iter(tokens)
        for index in range(n_users):
            identity = DeviceIdentity.create(f"user-{index}", seed=index)
            for visit_index in range(2):
                record = interaction_record(
                    identity,
                    target.entity_id,
                    t=(10 + index + visit_index * 45) * DAY,
                    travel=1.0 + index * 0.3,
                )
                assert server.receive(delivery_of(record, next(token_iter)))
            opinion = OpinionUpload(
                history_id=identity.history_id(target.entity_id),
                entity_id=target.entity_id,
                rating=4.0,
            )
            server.receive(delivery_of(opinion, next(token_iter)))
        return target

    def test_maintenance_builds_summaries(self, server_and_town):
        server, town = server_and_town
        target = self.fill(server, town)
        server.post_review("alice", target.entity_id, 5, time=0.0)
        report = server.run_maintenance()
        assert report.n_histories == 12
        summary = server.summary(target.entity_id)
        assert summary is not None
        assert summary.n_explicit_reviews == 1
        assert summary.n_inferred_opinions == 12
        assert summary.total_opinions == 13

    def test_search_returns_ranked_results_with_viz(self, server_and_town):
        server, town = server_and_town
        target = self.fill(server, town)
        server.run_maintenance()
        query = ServeQuery(category=target.category, near=target.location, radius_km=30.0)
        response = server.query(query)
        assert response.n_results >= 1
        assert response.results[0].entity.entity_id == target.entity_id
        assert response.visualization is not None
        assert target.entity_id in response.visualization.histograms

    def test_quota_defaults_reasonable(self, server_and_town):
        server, _ = server_and_town
        assert server.issuer.quota_per_day >= 1


class TestAttestationGatedIssuance:
    def make(self):
        from repro.fraud.attestation import (
            AttestationVerifier,
            PlatformVendor,
            client_build_hash,
            forge_quote_without_key,
        )

        town = build_town(TownConfig(n_users=3), seed=22)
        vendor = PlatformVendor()
        genuine = client_build_hash("official client v1")
        server = RSPServer(
            catalog=town.entities, key_seed=22, key_bits=256,
            attestation=AttestationVerifier(vendor, genuine_builds={genuine}),
        )
        return server, vendor, genuine, forge_quote_without_key

    def test_attested_device_gets_tokens(self):
        server, vendor, genuine, _ = self.make()
        wallet = TokenWallet(device_id="dev-good", seed=1)
        blinded = wallet.mint(server.issuer.public_key, 2)
        quote = vendor.make_quote("dev-good", genuine, nonce=b"q1")
        signatures = server.issue_tokens("dev-good", blinded, now=0.0, quote=quote)
        wallet.accept_signatures(server.issuer.public_key, signatures)
        assert wallet.balance == 2

    def test_modified_client_refused(self):
        from repro.fraud.attestation import client_build_hash

        server, vendor, _, _ = self.make()
        wallet = TokenWallet(device_id="dev-evil", seed=2)
        blinded = wallet.mint(server.issuer.public_key, 1)
        quote = vendor.make_quote("dev-evil", client_build_hash("patched"), nonce=b"q2")
        with pytest.raises(PermissionError):
            server.issue_tokens("dev-evil", blinded, now=0.0, quote=quote)
        assert server.rejected_attestations == 1

    def test_missing_or_forged_quote_refused(self):
        server, _, genuine, forge = self.make()
        wallet = TokenWallet(device_id="dev-forge", seed=3)
        blinded = wallet.mint(server.issuer.public_key, 1)
        with pytest.raises(PermissionError):
            server.issue_tokens("dev-forge", blinded, now=0.0, quote=None)
        with pytest.raises(PermissionError):
            server.issue_tokens(
                "dev-forge", blinded, now=0.0,
                quote=forge("dev-forge", genuine, nonce=b"q3"),
            )

    def test_no_verifier_means_open_issuance(self):
        town = build_town(TownConfig(n_users=3), seed=23)
        server = RSPServer(catalog=town.entities, key_seed=23, key_bits=256)
        wallet = TokenWallet(device_id="dev", seed=4)
        blinded = wallet.mint(server.issuer.public_key, 1)
        signatures = server.issue_tokens("dev", blinded, now=0.0)
        wallet.accept_signatures(server.issuer.public_key, signatures)
        assert wallet.balance == 1


class _PoisonedHistoryKey(str):
    """A history key whose first hash — inside the store — explodes."""

    def __hash__(self):
        raise RuntimeError("poisoned record")


class TestTransactionalIntake:
    """Regression: accept bookkeeping must be transactional with store
    dispatch.  A record that fails *inside* the store must neither count
    as accepted nor burn its nonce — the client's retransmission of a
    repaired record under the same nonce must still land."""

    def test_poisoned_record_neither_counts_nor_burns_nonce(self):
        town = build_town(TownConfig(n_users=3), seed=24)
        server = RSPServer(catalog=town.entities, key_seed=24, require_tokens=False)
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        good = interaction_record(identity, entity_id)
        poisoned = InteractionUpload(
            history_id=_PoisonedHistoryKey(good.history_id),
            entity_id=entity_id,
            interaction_type="visit",
            event_time=0.0,
            duration=1800.0,
            travel_km=2.0,
        )
        envelope = Envelope(record=poisoned, token=None, nonce=b"keep-me")
        assert not server.receive(
            Delivery(payload=envelope, arrival_time=1.0, channel_tag="c")
        )
        assert server.rejected_envelopes == 1
        assert server.accepted_envelopes == 0
        assert server.n_unique_nonces == 0
        assert server.n_records == 0
        # Retransmission of the repaired record, same nonce: accepted.
        retry = Envelope(record=good, token=None, nonce=b"keep-me")
        assert server.receive(
            Delivery(payload=retry, arrival_time=2.0, channel_tag="c")
        )
        assert server.accepted_envelopes == 1
        assert server.n_records == 1

    def test_poisoned_record_does_not_block_the_batch(self):
        town = build_town(TownConfig(n_users=3), seed=24)
        server = RSPServer(catalog=town.entities, key_seed=24, require_tokens=False)
        identity = DeviceIdentity.create("u", seed=2)
        entity_id = town.entities[0].entity_id
        good = interaction_record(identity, entity_id)
        poisoned = InteractionUpload(
            history_id=_PoisonedHistoryKey(good.history_id),
            entity_id=entity_id,
            interaction_type="visit",
            event_time=0.0,
            duration=1800.0,
            travel_km=2.0,
        )
        batch = [
            Delivery(
                payload=Envelope(record=poisoned, token=None, nonce=b"n1"),
                arrival_time=1.0,
                channel_tag="c",
            ),
            Delivery(
                payload=Envelope(record=good, token=None, nonce=b"n2"),
                arrival_time=2.0,
                channel_tag="c",
            ),
        ]
        assert server.receive_all(batch) == 1
        assert server.accepted_envelopes == 1
        assert server.rejected_envelopes == 1
