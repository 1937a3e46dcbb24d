"""One accepted-upload transition: live, recovered and promoted servers agree.

Live intake, WAL replay and the replica's log shipping all change server
state through the same store write, acceptance commit and quota charge.
These tests drive a journaled, token-requiring primary with a replica,
then compare the live primary with a server recovered from its directory
and with the promoted replica.
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability.journal import DurableJournal, attach_journal
from repro.durability.recovery import recover_server
from repro.durability.replication import ReplicatedRSPServer, ReplicationChannel
from repro.durability.snapshot import capture_state
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.privacy.tokens import QuotaExceeded, TokenWallet
from repro.reshard import ReshardOp, perform
from repro.service.server import RSPServer
from repro.util.clock import DAY

from tests.durability.conftest import comparable_state


def token_server(catalog, n_shards=1):
    return RSPServer(catalog=catalog, key_bits=256, n_shards=n_shards)


def token_pair(catalog, root, n_shards=1):
    primary = token_server(catalog, n_shards)
    journal = DurableJournal(
        root / "primary", n_lanes=n_shards, lane_of=primary.router.shard_of
    )
    attach_journal(primary, journal)
    return ReplicatedRSPServer(
        primary,
        token_server(catalog, n_shards),
        journal,
        ReplicationChannel(),
        durable_root=root,
    )


def mint(server, count, now, seed=0):
    """``count`` tokens for one device, issued (and journaled) at ``now``."""
    wallet = TokenWallet(device_id="device-1", seed=seed)
    blinded = wallet.mint(server.issuer.public_key, count)
    wallet.accept_signatures(
        server.issuer.public_key, server.issue_tokens("device-1", blinded, now=now)
    )
    return [wallet.spend() for _ in range(count)]


def visit(history_id, entity_id, t=0.0):
    return InteractionUpload(
        history_id=history_id,
        entity_id=entity_id,
        interaction_type="visit",
        event_time=t,
        duration=600.0,
        travel_km=1.0,
    )


def opinion(history_id, entity_id, seq, rating=4.0):
    return OpinionUpload(history_id=history_id, entity_id=entity_id, rating=rating, seq=seq)


def delivery(record, token, nonce, arrival=100.0):
    return Delivery(
        payload=Envelope(record=record, token=token, nonce=nonce.to_bytes(16, "big")),
        arrival_time=arrival,
        channel_tag=f"ch-{nonce}",
    )


def fail_over_and_recover(pair, catalog, root, n_shards=1):
    """The promoted replica and a server recovered from the dead primary.

    ``n_shards`` is the pair's starting shard count: recovery replays any
    reshard from there.
    """
    promoted = pair.fail_over(torn_bytes=5)
    recovered = token_server(catalog, n_shards)
    recover_server(recovered, root / "primary")
    # The dead primary's memory is the live truth; detach its closed
    # journal so it can take the same follow-up deliveries.
    pair.primary.journal = pair.primary.issuer.journal = None
    return promoted, recovered


def test_a_rejected_envelope_leaves_its_token_spendable_after_recovery_and_failover(
    catalog, tmp_path
):
    ids = sorted(entity.entity_id for entity in catalog)
    pair = token_pair(catalog, tmp_path)
    primary = pair.primary
    first, retry, rejected = mint(primary, 3, now=0.0)
    assert primary.receive(delivery(visit("hist-a", ids[0]), first, nonce=1))
    # A retransmitted copy under a fresh token is a duplicate, and a
    # token-valid envelope naming an unknown entity is rejected: neither
    # is accepted, so neither token is spent.
    assert not primary.receive(delivery(visit("hist-a", ids[0]), retry, nonce=1))
    assert not primary.receive(delivery(visit("hist-b", "ghost"), rejected, nonce=2))
    pair.ship(now=200.0)

    promoted, recovered = fail_over_and_recover(pair, catalog, tmp_path)
    for server in (primary, promoted, recovered):
        assert capture_state(server)["spent_tokens"] == [first.token_id.hex()]
        assert server.receive(delivery(visit("hist-c", ids[1]), retry, nonce=3))
        assert server.receive(delivery(visit("hist-d", ids[2]), rejected, nonce=4))
    assert comparable_state(promoted) == comparable_state(primary)
    assert comparable_state(recovered) == comparable_state(primary)


def test_live_recovered_and_promoted_servers_agree_on_every_fate(catalog, tmp_path):
    ids = sorted(entity.entity_id for entity in catalog)
    pair = token_pair(catalog, tmp_path, n_shards=2)
    primary = pair.primary
    tokens = mint(primary, 10, now=0.0)
    with pytest.raises(QuotaExceeded):
        primary.issue_tokens(
            "device-1", list(range(2, primary.issuer.quota_per_day + 3)), now=DAY + 1.0
        )
    tokens += mint(primary, 2, now=2 * DAY, seed=1)

    fates = [
        (delivery(visit("hist-a", ids[0]), tokens[0], nonce=1), True),
        (delivery(opinion("hist-a", ids[0], seq=2), tokens[1], nonce=2), True),
        # Stale: the slot keeps seq 2, the envelope is still accepted.
        (delivery(opinion("hist-a", ids[0], seq=1, rating=1.0), tokens[2], nonce=3), True),
        # Duplicate: nonce 1 again, under a fresh token.
        (delivery(visit("hist-a", ids[0]), tokens[3], nonce=1), False),
        # Token-valid rejection: an unknown entity.
        (delivery(visit("hist-b", "ghost"), tokens[4], nonce=4), False),
        # History mismatch: hist-a is bound to ids[0].
        (delivery(visit("hist-a", ids[1]), tokens[5], nonce=5), False),
    ]
    assert [primary.receive(d) for d, _ in fates] == [accepted for _, accepted in fates]
    assert primary.opinions_stale == 1 and primary.history_mismatches == 1
    primary.post_review("reviewer-1", ids[2], 4, time=50.0)
    perform(primary, ReshardOp.split(0))
    # After the split: fresh uploads, and the duplicate's and the
    # rejection's unspent tokens on valid records.
    later = [
        delivery(visit(f"hist-{i}", ids[i % len(ids)], t=10.0 * i), token, nonce=10 + i)
        for i, token in enumerate([tokens[3], tokens[4], *tokens[6:]])
    ]
    primary.receive_all(later)
    pair.ship(now=3 * DAY)
    live = comparable_state(primary)

    promoted, recovered = fail_over_and_recover(pair, catalog, tmp_path, n_shards=2)
    assert comparable_state(recovered) == live
    assert comparable_state(promoted) == live
