"""Incremental maintenance: same digest, less work.

The matrix half of this suite runs the full epochs pipeline with
``incremental=True`` against a from-scratch (``incremental=False``)
monolithic baseline and asserts *exact* equality of the per-epoch report
digest, every entity summary, and the aggregate telemetry digest — for
every deployment in the acceptance grid (shards {1, 4, 8} × workers
{1, 4}, plus the monolith), clean and under chaos.  An explicit
cache-hit guard keeps the equality from being vacuous: the incremental
runs must actually skip work.

The unit half pins the invalidation contract of
:mod:`repro.service.incremental` directly: quiescent cycles track
nothing, an entity whose last history is rejected loses its cached
summary, a changed kind profile conservatively re-dirties the kind, a
delayed (reordered) opinion re-upload never clobbers a newer one, and an
interaction upload whose identifier is bound to another entity is
rejected as ``history-mismatch`` — in both deployments.
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.faults import DropFault, DuplicateFault, FaultPlan, Window
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.privacy.identifiers import DeviceIdentity
from repro.privacy.uploads import RetransmitPolicy
from repro.scale.server import ShardedRSPServer
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


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def run(world, n_shards=1, workers=0, plan=None, retransmit=None, incremental=True):
    town, result, classifier = world
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=29, retransmit=retransmit)
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
        incremental=incremental,
    )


def assert_equivalent(baseline, candidate):
    assert candidate.reports_digest() == baseline.reports_digest()
    assert candidate.server.all_summaries() == baseline.server.all_summaries()
    assert candidate.telemetry.digest(scope=AGGREGATE) == baseline.telemetry.digest(
        scope=AGGREGATE
    )


#: The acceptance grid: monolith plus shards {1, 4, 8} × workers {1, 4}.
DEPLOYMENTS = [(1, 0), (1, 1), (1, 4), (4, 1), (4, 4), (8, 1), (8, 4)]


class TestCleanMatrix:
    @pytest.fixture(scope="class")
    def full_baseline(self, world):
        """Monolithic from-scratch recompute: the contractual reference."""
        return run(world, incremental=False)

    @pytest.mark.parametrize("n_shards,workers", DEPLOYMENTS)
    def test_incremental_matches_full_recompute(
        self, world, full_baseline, n_shards, workers
    ):
        outcome = run(world, n_shards=n_shards, workers=workers, incremental=True)
        assert_equivalent(full_baseline, outcome)

    def test_full_mode_is_also_deployment_invariant(self, world, full_baseline):
        outcome = run(world, n_shards=4, workers=1, incremental=False)
        assert_equivalent(full_baseline, outcome)

    def test_incremental_runs_actually_skip_work(self, world):
        """Anti-vacuity: equality means nothing if nothing was cached."""
        outcome = run(world, incremental=True)
        hits = outcome.telemetry.total("rsp.maintenance.cache_hits")
        skips = outcome.telemetry.total("rsp.maintenance.cache_skips")
        assert hits > 0, "no entity was ever served from cache"
        assert skips > 0, "no entity was ever recomputed"
        assert outcome.server.n_histories > 0


class TestChaosMatrix:
    @pytest.fixture(scope="class")
    def chaos_full_baseline(self, world):
        return run(world, plan=CHAOS, retransmit=RETRY, incremental=False)

    @pytest.mark.parametrize("n_shards,workers", [(1, 0), (4, 1), (8, 2)])
    def test_chaos_incremental_matches_full(
        self, world, chaos_full_baseline, n_shards, workers
    ):
        outcome = run(
            world,
            n_shards=n_shards,
            workers=workers,
            plan=CHAOS,
            retransmit=RETRY,
            incremental=True,
        )
        assert_equivalent(chaos_full_baseline, outcome)


# --------------------------------------------------------------- units


def make_servers(seed=40, n_users=16):
    """One monolithic and one sharded server over the same small town."""
    town = build_town(TownConfig(n_users=n_users), seed=seed)
    mono = RSPServer(catalog=town.entities, key_seed=seed, require_tokens=False)
    sharded = ShardedRSPServer(
        catalog=town.entities, key_seed=seed, require_tokens=False, n_shards=4
    )
    return town, mono, sharded


def deliver(server, record, nonce, arrival=1.0):
    envelope = Envelope(record=record, token=None, nonce=nonce)
    return server.receive(
        Delivery(payload=envelope, arrival_time=arrival, channel_tag="c")
    )


def interaction(identity, entity_id, t, duration=1800.0):
    return InteractionUpload(
        history_id=identity.history_id(entity_id),
        entity_id=entity_id,
        interaction_type="visit",
        event_time=t,
        duration=duration,
        travel_km=2.0,
    )


def entities_by_kind(town):
    groups = {}
    for entity in town.entities:
        groups.setdefault(entity.kind.label, []).append(entity.entity_id)
    return groups


def fill_honest(server, entity_id, n_users=12, nonce_tag=b"h"):
    """Twelve well-spaced 3-visit histories: the typical-profile baseline."""
    for index in range(n_users):
        identity = DeviceIdentity.create(f"honest-{index}", seed=index)
        for visit in range(3):
            record = interaction(
                identity, entity_id, t=(5 + index + visit * 7) * DAY
            )
            assert deliver(
                server, record, nonce=nonce_tag + bytes([index, visit])
            )


@pytest.mark.parametrize("flavor", ["mono", "sharded"])
class TestInvalidationUnits:
    def pick(self, flavor, mono, sharded):
        return mono if flavor == "mono" else sharded

    def test_quiescent_cycle_tracks_nothing(self, flavor):
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        fill_honest(server, town.entities[0].entity_id)
        server.run_maintenance()
        first = server.all_summaries()
        assert first
        skips_after_first = telemetry.total("rsp.maintenance.cache_skips")
        server.run_maintenance()
        assert telemetry.value("rsp.maintenance.dirty_entities") == 0
        assert telemetry.total("rsp.maintenance.cache_skips") == skips_after_first
        assert server.all_summaries() == first

    def test_eviction_when_last_history_is_rejected(self, flavor):
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        kinds = entities_by_kind(town)
        kind, members = next(
            (kind, ids) for kind, ids in kinds.items() if len(ids) >= 2
        )
        honest_entity, bot_entity = members[0], members[1]
        fill_honest(server, honest_entity)
        bot = DeviceIdentity.create("bot", seed=99)
        # Two interactions: below the judging threshold, so the history
        # is accepted and the entity gets a summary.
        for visit in range(2):
            assert deliver(
                server,
                interaction(bot, bot_entity, t=visit * 60.0),
                nonce=b"bot" + bytes([visit]),
            )
        server.run_maintenance()
        assert server.summary(bot_entity) is not None
        # The same history balloons to 60 machine-gun interactions — far
        # beyond the honest count ceiling — and gets rejected wholesale.
        for visit in range(2, 60):
            assert deliver(
                server,
                interaction(bot, bot_entity, t=visit * 60.0),
                nonce=b"bot" + bytes([visit]),
            )
        report = server.run_maintenance()
        assert any(v.entity_id == bot_entity for v in report.rejected)
        assert server.summary(bot_entity) is None

    def test_changed_profile_redirties_the_kind(self, flavor):
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        kinds = entities_by_kind(town)
        kind, members = next(
            (kind, ids) for kind, ids in sorted(kinds.items()) if len(ids) >= 2
        )
        other_kind_entity = next(
            ids[0] for k, ids in sorted(kinds.items()) if k != kind
        )
        fill_honest(server, members[0])
        fill_honest(server, other_kind_entity, nonce_tag=b"o")
        server.run_maintenance()
        assert telemetry.total("rsp.maintenance.redirtied") == 0
        # New activity at a *sibling* entity moves the kind's profile, so
        # the clean same-kind entity must be re-dirtied; the other kind's
        # profile is untouched and its entity stays cached.
        newcomer = DeviceIdentity.create("newcomer", seed=7)
        for visit in range(3):
            assert deliver(
                server,
                interaction(newcomer, members[1], t=(3 + visit * 5) * DAY),
                nonce=b"n" + bytes([visit]),
            )
        server.run_maintenance()
        assert telemetry.total("rsp.maintenance.redirtied") == 1
        assert telemetry.value("rsp.maintenance.cached_entities") == 1

    def test_cross_entity_opinion_overwrite_moves_the_claim(self, flavor):
        """A re-upload that re-targets another entity (the client's
        inference moved) must pull the inferred opinion out of the old
        entity's summary and into the new one's — in cache, exactly as a
        full recompute would."""
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        full = RSPServer(
            catalog=town.entities,
            key_seed=40,
            require_tokens=False,
            incremental=False,
        )
        entity_a = town.entities[0].entity_id
        entity_b = town.entities[1].entity_id
        identity = DeviceIdentity.create("u", seed=1)
        history_id = identity.history_id(entity_a)
        uploads = [
            (interaction(identity, entity_a, t=0.0), b"i"),
            (
                OpinionUpload(
                    history_id=history_id, entity_id=entity_a, rating=4.0, seq=0
                ),
                b"o0",
            ),
        ]
        for record, nonce in uploads:
            assert deliver(server, record, nonce=nonce)
            assert deliver(full, record, nonce=nonce)
        server.run_maintenance()
        full.run_maintenance()
        assert server.summary(entity_a).n_inferred_opinions == 1
        retarget = OpinionUpload(
            history_id=history_id, entity_id=entity_b, rating=2.0, seq=1
        )
        assert deliver(server, retarget, nonce=b"o1")
        assert deliver(full, retarget, nonce=b"o1")
        server.run_maintenance()
        full.run_maintenance()
        assert server.summary(entity_a).n_inferred_opinions == 0
        # The claim moved: B now owns a summary row.  The opinion itself
        # is discounted (B has no history with that id — aggregation
        # drops depth-less inferred opinions), same as a full recompute.
        assert server.summary(entity_b) is not None
        assert server.summary(entity_b).n_inferred_opinions == 0
        assert server.all_summaries() == full.all_summaries()

    def test_history_mismatch_is_split_from_unstored(self, flavor):
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        identity = DeviceIdentity.create("u", seed=1)
        entity_a = town.entities[0].entity_id
        entity_b = town.entities[1].entity_id
        assert deliver(server, interaction(identity, entity_a, t=0.0), nonce=b"ok")
        # Same history identifier, different claimed entity: a client bug
        # or a corruption attempt, not a generic storage failure.
        forged = InteractionUpload(
            history_id=identity.history_id(entity_a),
            entity_id=entity_b,
            interaction_type="visit",
            event_time=60.0,
            duration=1800.0,
            travel_km=2.0,
        )
        assert not deliver(server, forged, nonce=b"forged")
        assert server.history_mismatches == 1
        assert (
            telemetry.value("rsp.envelopes.rejected", reason="history-mismatch") == 1
        )
        assert telemetry.value("rsp.envelopes.rejected", reason="unstored") is None


@pytest.mark.parametrize("flavor", ["mono", "sharded"])
class TestSeqOrdering:
    """The version-ordered opinion intake (the foregrounded bugfix).

    Scenario: the client uploads its opinion (``seq=0``), the mix holds
    that envelope in a delay window, the client's inference changes and
    it re-uploads (``seq=1``), and the *newer* envelope arrives first.
    Arrival-order last-write-wins — the old code — would let the late
    ``seq=0`` straggler clobber the newer rating; ``seq`` ordering keeps
    the newest opinion whatever the network did.
    """

    def pick(self, flavor, mono, sharded):
        return mono if flavor == "mono" else sharded

    def slot(self, flavor, server, history_id):
        shard = server.shards[server.router.shard_of(history_id)]
        return shard.opinions[history_id]

    def test_delayed_stale_upload_cannot_clobber_newer(self, flavor):
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        history_id = identity.history_id(entity_id)
        assert deliver(server, interaction(identity, entity_id, t=0.0), nonce=b"i")
        newer = OpinionUpload(
            history_id=history_id, entity_id=entity_id, rating=5.0, seq=1
        )
        stale = OpinionUpload(
            history_id=history_id, entity_id=entity_id, rating=2.0, seq=0
        )
        # The re-upload outruns the delayed original.
        assert deliver(server, newer, nonce=b"new", arrival=2.0)
        assert deliver(server, stale, nonce=b"old", arrival=6.0 * HOUR)
        assert self.slot(flavor, server, history_id).rating == 5.0
        assert self.slot(flavor, server, history_id).seq == 1
        assert server.opinions_stale == 1
        assert telemetry.total("rsp.opinions.stale") == 1
        # The straggler is *accepted* (correct sender, no retransmit
        # needed); only the slot write was skipped.
        assert server.n_opinions == 1

    def test_in_order_uploads_still_take_latest(self, flavor):
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        history_id = identity.history_id(entity_id)
        first = OpinionUpload(
            history_id=history_id, entity_id=entity_id, rating=2.0, seq=0
        )
        second = OpinionUpload(
            history_id=history_id, entity_id=entity_id, rating=4.0, seq=1
        )
        assert deliver(server, first, nonce=b"a")
        assert deliver(server, second, nonce=b"b")
        assert self.slot(flavor, server, history_id).rating == 4.0
        assert server.opinions_stale == 0

    def test_equal_seq_keeps_existing(self, flavor):
        """Ties keep the stored record: a duplicate that slipped past the
        nonce table (e.g. a re-encrypted copy) must be a no-op."""
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        identity = DeviceIdentity.create("u", seed=1)
        entity_id = town.entities[0].entity_id
        history_id = identity.history_id(entity_id)
        original = OpinionUpload(
            history_id=history_id, entity_id=entity_id, rating=3.0, seq=0
        )
        copy = OpinionUpload(
            history_id=history_id, entity_id=entity_id, rating=1.0, seq=0
        )
        assert deliver(server, original, nonce=b"a")
        assert deliver(server, copy, nonce=b"b")
        assert self.slot(flavor, server, history_id).rating == 3.0
        assert server.opinions_stale == 1
