"""Batched intake vs per-record intake: the byte-identity obligation.

:mod:`repro.ingest.columnar` is the server's one intake loop.  Whether
envelopes arrive one at a time (``receive``) or in batches
(``receive_all`` / ``ingest_all``), at one shard or many, with or without
fault chaos and durability, intake produces

* the same accept/reject/duplicate classification for every envelope,
* the same epoch report digests, opinion summaries, and fraud verdicts,
* the same aggregate telemetry (a batch adds only its batch-size
  histogram),
* the same WAL, byte for byte, under the same global sequence numbers.

The epoch-level matrix drives the full pipeline across shard/worker
configurations, clean and under the chaos plan, against the one-shard
run; the direct server-level tests pin each classification branch
(duplicate, stale seq, token bounce on a seen nonce, malformed and
poisoned records) where the epoch pipeline would reach them only by
luck.
"""

import pytest

from repro.core.protocol import Envelope
from repro.durability.journal import DurableJournal, attach_journal
from repro.faults import DropFault, DuplicateFault, FaultPlan, Window
from repro.ingest import SyntheticTraffic, WorkloadConfig, ingest_all
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.anonymity import Delivery
from repro.privacy.tokens import TokenWallet
from repro.privacy.uploads import RetransmitPolicy
from repro.service.server import RSPServer
from repro.telemetry import AGGREGATE, Telemetry
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

HORIZON_DAYS = 28.0
HORIZON = HORIZON_DAYS * DAY
N_EPOCHS = 3
MAX_USERS = 8

CHAOS = FaultPlan(
    seed=17,
    drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.05),),
    duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), 0.10),),
)
RETRY = RetransmitPolicy(max_attempts=2, min_interval=6 * HOUR)

#: A workload whose impurities exercise every classification branch.
IMPURE = WorkloadConfig(
    n_users=250,
    n_entities=40,
    opinion_fraction=0.35,
    duplicate_fraction=0.05,
    stale_fraction=0.2,
    invalid_fraction=0.05,
    seed=11,
)

COUNTERS = (
    "accepted_envelopes",
    "rejected_envelopes",
    "duplicates_suppressed",
    "opinions_stale",
    "dropped_by_outage",
    "history_mismatches",
    "n_records",
    "n_opinions",
)


# ------------------------------------------------------- epoch-level matrix


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def run(world, n_shards=1, workers=0, plan=None, retransmit=None):
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
        workers=workers,
    )


def verdict_set(outcome):
    return {
        (v.history_id, v.entity_id, v.flags)
        for report in outcome.reports
        if report.maintenance is not None
        for v in report.maintenance.rejected
    }


def assert_equivalent(baseline, candidate):
    assert candidate.reports_digest() == baseline.reports_digest()
    assert candidate.server.all_summaries() == baseline.server.all_summaries()
    assert verdict_set(candidate) == verdict_set(baseline)
    # The AGGREGATE telemetry scope is deployment-invariant by contract
    # (tests/telemetry/test_golden_snapshot.py), so every cell must
    # reproduce the one-shard export exactly.
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
    @pytest.mark.parametrize("n_shards", [1, 4, 8])
    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_batched_intake_is_indistinguishable(
        self, world, clean_baseline, n_shards, workers
    ):
        outcome = run(world, n_shards=n_shards, workers=workers)
        assert_equivalent(clean_baseline, outcome)

    def test_baseline_is_not_vacuous(self, clean_baseline):
        assert clean_baseline.server.n_records > 0
        assert clean_baseline.server.accepted_envelopes > 0


class TestChaosMatrix:
    @pytest.mark.parametrize("n_shards,workers", [(1, 0), (4, 1), (8, 4)])
    def test_batched_chaos_is_indistinguishable(
        self, world, chaos_baseline, n_shards, workers
    ):
        outcome = run(
            world,
            n_shards=n_shards,
            workers=workers,
            plan=CHAOS,
            retransmit=RETRY,
        )
        assert_equivalent(chaos_baseline, outcome)
        assert (
            outcome.server.duplicates_suppressed
            == chaos_baseline.server.duplicates_suppressed
        )

    def test_chaos_actually_bites(self, chaos_baseline):
        assert chaos_baseline.injector.messages_dropped > 0
        assert chaos_baseline.server.duplicates_suppressed > 0


# --------------------------------------------------- direct server parity


def paired_servers(n_shards=0, require_tokens=False):
    """Two identical servers (with real telemetry) plus twin traffic.

    ``n_shards=0`` builds the default one-shard server.
    """
    t1, t2 = SyntheticTraffic(IMPURE), SyntheticTraffic(IMPURE)
    servers = []
    for catalog in (t1.catalog, t2.catalog):
        telemetry = Telemetry()
        server = RSPServer(
            catalog, n_shards=n_shards or 1, workers=0, require_tokens=require_tokens
        )
        server.attach_telemetry(telemetry)
        servers.append((server, telemetry))
    return servers[0], servers[1], t1, t2


def receive_each(server, deliveries, now):
    """Per-record intake: one ``receive`` call per delivery."""
    return sum(server.receive(delivery, now=now) for delivery in deliveries)


def aggregate_rows(telemetry):
    """The AGGREGATE export minus the batch-size histogram only a batch
    records."""
    return [
        row
        for row in telemetry.export(scope=AGGREGATE)["metrics"]
        if row["name"] != "rsp.intake.batch"
    ]


def assert_same_story(pair_a, pair_b):
    (server_a, tele_a), (server_b, tele_b) = pair_a, pair_b
    for attr in COUNTERS:
        assert getattr(server_a, attr) == getattr(server_b, attr), attr
    # Export-identical, not merely total-identical.
    assert aggregate_rows(tele_a) == aggregate_rows(tele_b)


@pytest.mark.parametrize("n_shards", [0, 4])
def test_impure_stream_parity(n_shards):
    pair_a, pair_b, t1, t2 = paired_servers(n_shards=n_shards)
    for tick in range(5):
        now = 100.0 * tick
        receive_each(pair_a[0], t1.batch(400, now), now=now)
        ingest_all(pair_b[0], t2.batch(400, now), now=now)
    assert_same_story(pair_a, pair_b)
    # The impurities actually exercised the interesting branches.
    assert pair_a[0].duplicates_suppressed > 0
    assert pair_a[0].rejected_envelopes > 0
    assert pair_a[0].opinions_stale > 0


@pytest.mark.parametrize("n_shards", [0, 4])
def test_maintenance_after_batched_intake_matches(n_shards):
    pair_a, pair_b, t1, t2 = paired_servers(n_shards=n_shards)
    receive_each(pair_a[0], t1.batch(1200, 100.0), now=100.0)
    ingest_all(pair_b[0], t2.batch(1200, 100.0), now=100.0)
    report_a = pair_a[0].run_maintenance(now=200.0)
    report_b = pair_b[0].run_maintenance(now=200.0)
    assert pair_a[0].all_summaries() == pair_b[0].all_summaries()
    assert report_a.n_opinions_kept == report_b.n_opinions_kept
    assert_same_story(pair_a, pair_b)


def entity_record(catalog):
    from repro.core.aggregation import OpinionUpload

    return OpinionUpload(
        history_id="h-parity", entity_id=catalog[0].entity_id, rating=4.0, seq=1
    )


class TestTokenNuances:
    """The token-failure-on-seen-nonce branch, on both intake paths."""

    def make_pair(self):
        pair_a, pair_b, t1, _ = paired_servers(require_tokens=True)
        return pair_a, pair_b, t1.catalog

    def tokens_for(self, server, count):
        wallet = TokenWallet(device_id="parity-device")
        blinded = wallet.mint(server.issuer.public_key, count)
        signatures = server.issuer.issue("parity-device", blinded, now=100.0)
        wallet.accept_signatures(server.issuer.public_key, signatures)
        return [wallet.spend() for _ in range(count)]

    def deliver(self, server, telemetry, batched, deliveries):
        if batched:
            return ingest_all(server, deliveries, now=100.0)
        return receive_each(server, deliveries, now=100.0)

    def test_spent_token_on_seen_nonce_is_a_duplicate(self):
        pair_a, pair_b, catalog = self.make_pair()
        record = entity_record(catalog)
        results = []
        for (server, telemetry), batched in ((pair_a, False), (pair_b, True)):
            (token,) = self.tokens_for(server, 1)
            envelope = Envelope(record=record, token=token, nonce=b"n-1" * 6)
            first = Delivery(payload=envelope, arrival_time=100.0, channel_tag="t")
            redelivery = Delivery(payload=envelope, arrival_time=101.0, channel_tag="t")
            self.deliver(server, telemetry, batched, [first])
            self.deliver(server, telemetry, batched, [redelivery])
            results.append((server, telemetry))
        for server, _ in results:
            assert server.accepted_envelopes == 1
            assert server.duplicates_suppressed == 1
            assert server.rejected_envelopes == 0
        assert_same_story(*results)

    def test_missing_token_on_fresh_nonce_is_a_token_bounce(self):
        pair_a, pair_b, catalog = self.make_pair()
        record = entity_record(catalog)
        envelope = Envelope(record=record, token=None, nonce=b"n-2" * 6)
        delivery = Delivery(payload=envelope, arrival_time=100.0, channel_tag="t")
        receive_each(pair_a[0], [delivery], now=100.0)
        ingest_all(pair_b[0], [delivery], now=100.0)
        for server, _ in (pair_a, pair_b):
            assert server.rejected_envelopes == 1
            assert server.accepted_envelopes == 0
        assert_same_story(pair_a, pair_b)


class _Exploding:
    """A record whose store dispatch blows up (but routes like a real one)."""

    history_id = "h-poison"

    @property
    def entity_id(self):
        raise RuntimeError("poisoned record")


class TestPoisonedRecords:
    @pytest.mark.parametrize("n_shards", [0, 4])
    def test_malformed_record_parity(self, n_shards):
        pair_a, pair_b, t1, t2 = paired_servers(n_shards=n_shards)
        bad = Delivery(
            payload=Envelope(record="not a record", token=None, nonce=b"n-3" * 6),
            arrival_time=100.0,
            channel_tag="t",
        )
        receive_each(pair_a[0], [bad] + t1.batch(50, 100.0), now=100.0)
        ingest_all(pair_b[0], [bad] + t2.batch(50, 100.0), now=100.0)
        assert pair_a[0].rejected_envelopes >= 1
        assert_same_story(pair_a, pair_b)

    def test_exploding_record_is_a_store_error_on_both_paths(self):
        pair_a, pair_b, t1, t2 = paired_servers()
        poison = Delivery(
            payload=Envelope(record=_Exploding(), token=None, nonce=b"n-4" * 6),
            arrival_time=100.0,
            channel_tag="t",
        )
        receive_each(pair_a[0], [poison] + t1.batch(50, 100.0), now=100.0)
        ingest_all(pair_b[0], [poison] + t2.batch(50, 100.0), now=100.0)
        assert pair_a[0].rejected_envelopes >= 1
        assert_same_story(pair_a, pair_b)


class TestNonceFreeEnvelopes:
    def test_no_nonce_means_no_dedup_on_either_path(self):
        pair_a, pair_b, t1, _ = paired_servers()
        record = entity_record(t1.catalog)
        bare = Envelope(record=record, token=None, nonce=None)
        deliveries = [
            Delivery(payload=bare, arrival_time=100.0, channel_tag="t")
            for _ in range(3)
        ]
        receive_each(pair_a[0], deliveries, now=100.0)
        ingest_all(pair_b[0], deliveries, now=100.0)
        for server, _ in (pair_a, pair_b):
            assert server.duplicates_suppressed == 0
            assert server.accepted_envelopes == 3
        assert_same_story(pair_a, pair_b)


# ------------------------------------------------------- WAL byte identity


@pytest.mark.parametrize("n_shards", [0, 4])
def test_wal_bytes_identical(tmp_path, n_shards):
    """Same deliveries, same WAL — to the byte, with the same global seqs.

    Per-record intake takes the deliveries in the order a batch processes
    them (grouped by shard, delivery order within a shard).
    """
    roots = {}
    for label, batched in (("per-record", False), ("batched", True)):
        traffic = SyntheticTraffic(IMPURE)
        telemetry = Telemetry()
        server = RSPServer(
            traffic.catalog, n_shards=n_shards or 1, workers=0, require_tokens=False
        )
        journal = DurableJournal(
            tmp_path / label / "primary",
            n_lanes=server.router.n_shards,
            lane_of=server.router.shard_of,
            telemetry=telemetry,
        )
        server.attach_telemetry(telemetry)
        attach_journal(server, journal)
        for tick in range(4):
            now = 100.0 * tick
            batch = traffic.batch(300, now)
            if batched:
                ingest_all(server, batch, now=now)
            else:
                for delivery in sorted(
                    batch, key=lambda d: server.router.shard_of(d.payload.record.history_id)
                ):
                    server.receive(delivery, now=now)
        roots[label] = tmp_path / label / "primary"
    names_a = sorted(p.name for p in roots["per-record"].glob("wal-*"))
    names_b = sorted(p.name for p in roots["batched"].glob("wal-*"))
    assert names_a == names_b and names_a
    for name in names_a:
        assert (roots["per-record"] / name).read_bytes() == (
            roots["batched"] / name
        ).read_bytes(), name
