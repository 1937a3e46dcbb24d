"""Batch routing regression: route once per envelope, never twice.

Batch intake used to derive each record's shard in the grouping pass and
then re-derive it inside the store dispatch — two SHA-256 routes per
envelope.  The intake loop now takes each group's shard from the grouping
pass.  These tests pin both the call count and, more importantly, that
grouping changes nothing observable: same stores, same counters, same
telemetry export as per-envelope ``receive``.
"""

import pytest

from repro.ingest import SyntheticTraffic, WorkloadConfig
from repro.scale.router import ShardRouter
from repro.scale.server import ShardedRSPServer
from repro.telemetry import Telemetry

WORKLOAD = WorkloadConfig(
    n_users=200,
    n_entities=30,
    opinion_fraction=0.35,
    duplicate_fraction=0.05,
    stale_fraction=0.1,
    seed=13,
)

COUNTERS = (
    "accepted_envelopes",
    "rejected_envelopes",
    "duplicates_suppressed",
    "opinions_stale",
    "history_mismatches",
    "n_records",
    "n_opinions",
)


class CountingRouter(ShardRouter):
    """A ShardRouter that counts string-key routes."""

    __slots__ = ("calls",)

    def __init__(self, n_shards):
        super().__init__(n_shards)
        self.calls = 0

    def shard_of(self, key):
        self.calls += 1
        return super().shard_of(key)


def make_server(n_shards=4):
    traffic = SyntheticTraffic(WORKLOAD)
    server = ShardedRSPServer(
        traffic.catalog, n_shards=n_shards, workers=0, require_tokens=False
    )
    server.attach_telemetry(Telemetry())
    counting = CountingRouter(n_shards)
    server.router = counting
    return server, counting, traffic


class TestRouteOnce:
    def test_mixed_batch_routes_once_per_delivery(self):
        server, counting, traffic = make_server()
        batch = traffic.batch(300, now=100.0)
        counting.calls = 0
        server.receive_batch(batch, now=100.0)
        assert counting.calls == len(batch)

    def test_single_shard_batch_routes_once_per_delivery(self):
        server, counting, traffic = make_server()
        pool = traffic.batch(600, now=100.0)
        target = [
            d
            for d in pool
            if counting.shard_of(d.payload.record.history_id) == 2
        ]
        assert len(target) > 10
        counting.calls = 0
        server.receive_batch(target, now=100.0)
        assert counting.calls == len(target)

    def test_duplicates_do_not_route_twice_either(self):
        server, counting, traffic = make_server()
        batch = traffic.batch(200, now=100.0)
        server.receive_batch(batch, now=100.0)
        counting.calls = 0
        server.receive_batch(batch, now=200.0)  # all duplicates
        assert counting.calls == len(batch)
        assert server.duplicates_suppressed >= len(batch)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 4, 8])
    def test_batch_matches_per_envelope_receive(self, n_shards):
        batched, _, t1 = make_server(n_shards)
        loop, _, t2 = make_server(n_shards)
        for tick in range(4):
            now = 100.0 * tick
            batch_a = t1.batch(250, now)
            batch_b = t2.batch(250, now)
            batched.receive_batch(batch_a, now=now)
            for delivery in batch_b:
                loop.receive(delivery, now=now)
        for attr in COUNTERS:
            assert getattr(batched, attr) == getattr(loop, attr), attr
        assert batched.all_summaries() == loop.all_summaries()

    def test_single_shard_burst_digest_pinned(self):
        """The fast path (no group allocation) vs the grouped path."""
        fast, counting, t1 = make_server(4)
        grouped, _, t2 = make_server(4)
        pool_a = t1.batch(600, now=100.0)
        pool_b = t2.batch(600, now=100.0)
        same = [
            d
            for d in pool_a
            if counting.shard_of(d.payload.record.history_id) == 1
        ]
        twin = [
            d
            for d in pool_b
            if counting.shard_of(d.payload.record.history_id) == 1
        ]
        assert [d.payload.nonce for d in same] == [d.payload.nonce for d in twin]
        fast.receive_batch(same, now=100.0)  # homogeneous: fast path
        for delivery in twin:  # per-envelope reference
            grouped.receive(delivery, now=100.0)
        for attr in COUNTERS:
            assert getattr(fast, attr) == getattr(grouped, attr), attr

    def test_record_without_string_history_id_still_store_errors(self):
        class NoKey:
            pass

        from repro.core.protocol import Envelope
        from repro.privacy.anonymity import Delivery

        server, _, traffic = make_server()
        weird = Delivery(
            payload=Envelope(record=NoKey(), token=None, nonce=b"n-rt" * 4),
            arrival_time=100.0,
            channel_tag="t",
        )
        before = server.rejected_envelopes
        server.receive_batch([weird] + traffic.batch(40, 100.0), now=100.0)
        assert server.rejected_envelopes > before
        export = server.telemetry.metrics.export_json()
        assert "malformed" in export
