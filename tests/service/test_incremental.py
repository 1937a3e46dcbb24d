"""Incremental maintenance: the invalidation contract, unit by unit.

These tests pin the invalidation contract of
:mod:`repro.service.incremental` directly: quiescent cycles track
nothing, an entity whose last history is rejected loses its cached
summary, a changed kind profile conservatively re-dirties the kind, a
cross-entity opinion overwrite moves the claim exactly as a from-scratch
server computes it, a delayed (reordered) opinion re-upload never
clobbers a newer one, and an interaction upload whose identifier is
bound to another entity is rejected as ``history-mismatch`` — at one
shard and at four.  Work-count tests hold a cycle's layout and fold work
to the histories that changed.
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability.recovery import finalize_recovery
from repro.durability.snapshot import capture_state, restore_state
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.privacy.identifiers import DeviceIdentity
from repro.scale import kernel
from repro.service.server import RSPServer
from repro.telemetry import Telemetry
from repro.util.clock import DAY, HOUR
from repro.util.rng import make_rng
from repro.world.population import TownConfig, build_town


def make_servers(seed=40, n_users=16):
    """One monolithic and one sharded server over the same small town."""
    town = build_town(TownConfig(n_users=n_users), seed=seed)
    mono = RSPServer(catalog=town.entities, key_seed=seed, require_tokens=False)
    sharded = RSPServer(
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


def from_scratch(town, server):
    """A fresh server restored from ``server``'s stores, after its first
    cycle: every entity dirty, so it recomputes everything."""
    fresh = RSPServer(catalog=town.entities, key_seed=40, require_tokens=False)
    restore_state(fresh, capture_state(server))
    finalize_recovery(fresh)
    fresh.run_maintenance()
    return fresh


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


def visit_every(server, identity, entity_id, gaps_days, nonce_tag, t0=40 * DAY):
    """Visits ``gaps_days`` apart, starting at ``t0``."""
    t = t0
    for visit, gap in enumerate([0, *gaps_days]):
        t += gap * DAY
        record = interaction(identity, entity_id, t=t)
        assert deliver(server, record, nonce=nonce_tag + bytes([visit]))


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
        from-scratch server computes it."""
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        entity_a = town.entities[0].entity_id
        entity_b = town.entities[1].entity_id
        # Background histories elsewhere, so the re-target cycle tracks
        # only part of the deployment.
        for index, entity in enumerate(town.entities[2:5]):
            fill_honest(server, entity.entity_id, nonce_tag=bytes([index]))
        identity = DeviceIdentity.create("u", seed=1)
        history_id = identity.history_id(entity_a)
        assert deliver(server, interaction(identity, entity_a, t=0.0), nonce=b"i")
        opinion = OpinionUpload(
            history_id=history_id, entity_id=entity_a, rating=4.0, seq=0
        )
        assert deliver(server, opinion, nonce=b"o0")
        server.run_maintenance(now=1.0)
        assert server.summary(entity_a).n_inferred_opinions == 1
        retarget = OpinionUpload(
            history_id=history_id, entity_id=entity_b, rating=2.0, seq=1
        )
        assert deliver(server, retarget, nonce=b"o1")
        server.run_maintenance(now=2.0)
        assert server.summary(entity_a).n_inferred_opinions == 0
        # The claim moved: B now owns a summary row.  The opinion itself
        # is discounted (B has no history with that id — aggregation
        # drops depth-less inferred opinions), same as a full recompute.
        assert server.summary(entity_b) is not None
        assert server.summary(entity_b).n_inferred_opinions == 0
        assert server.all_summaries() == from_scratch(town, server).all_summaries()

    def test_slot_overwrite_drops_the_clean_owners_frame_block(self, flavor):
        """A history bound to E has its slot re-targeted from F to G while
        E stays clean; a later profile move flips the history's verdict.
        The flip must invalidate the entity the slot claims *now* (G),
        so E's kept frame block must not still hold the old slot."""
        town, mono, sharded = make_servers()
        server = self.pick(flavor, mono, sharded)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        members = next(
            ids for _kind, ids in sorted(entities_by_kind(town).items()) if len(ids) >= 2
        )
        owner, sibling = members[0], members[1]
        entity_f, entity_g = [
            entity.entity_id
            for entity in town.entities
            if entity.entity_id not in (owner, sibling)
        ][:2]
        fill_honest(server, owner)
        # Seven irregular visits: above the kind's count ceiling, so the
        # history is rejected (VOLUME) until heavier histories join the kind.
        user = DeviceIdentity.create("u", seed=1)
        visit_every(server, user, owner, [7, 14, 8, 20, 10, 16], b"u")
        history_id = user.history_id(owner)
        opinion = OpinionUpload(history_id=history_id, entity_id=entity_f, rating=4.0, seq=0)
        assert deliver(server, opinion, nonce=b"o0")
        server.run_maintenance()
        retarget = OpinionUpload(history_id=history_id, entity_id=entity_g, rating=2.0, seq=1)
        assert deliver(server, retarget, nonce=b"o1")
        report = server.run_maintenance()
        # Only F and G were dirtied: the owner stayed clean.
        assert telemetry.value("rsp.maintenance.dirty_entities") == 2
        assert any(verdict.history_id == history_id for verdict in report.rejected)
        assert server.summary(entity_g) is None
        # Heavy histories at the sibling raise the kind's count ceiling:
        # the owner is re-dirtied (never dirtied) and the history flips.
        for index in range(4):
            heavy = DeviceIdentity.create(f"heavy-{index}", seed=50 + index)
            visit_every(
                server, heavy, sibling, [7, 15, 9, 21, 11, 17, 8, 13, 19, 10, 12],
                b"s" + bytes([index]),
            )
        report = server.run_maintenance()
        assert not any(verdict.history_id == history_id for verdict in report.rejected)
        assert server.summary(entity_f) is None
        assert server.summary(entity_g) is not None
        assert server.all_summaries() == from_scratch(town, server).all_summaries()

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


def panels(server):
    return dict(server._engine.panels)


class TestWorkFollowsChanges:
    """A dirty entity's cycle costs its changed histories, not all of
    them: spies count the histories ``build_frame`` lays out and the
    histories whose records the signature fold touches."""

    def spy(self, monkeypatch):
        laid_out: list[str] = []
        touched: list[str] = []
        build_frame = kernel.build_frame
        signature_keys = kernel.signature_keys

        def counting_build(histories, entity_kinds):
            laid_out.extend(history.history_id for history in histories)
            return build_frame(histories, entity_kinds)

        def counting_keys(frame, mask):
            touched.extend(
                history_id for history_id, hit in zip(frame.hist_ids, mask.tolist()) if hit
            )
            return signature_keys(frame, mask)

        monkeypatch.setattr(kernel, "build_frame", counting_build)
        monkeypatch.setattr(kernel, "signature_keys", counting_keys)
        return laid_out, touched

    def test_one_append_lays_out_and_folds_one_history(self, monkeypatch):
        town, server, _sharded = make_servers()
        entity_id = town.entities[0].entity_id
        users = [DeviceIdentity.create(f"regular-{index}", seed=index) for index in range(24)]
        for index, user in enumerate(users):
            # Two to five irregular visits each: nothing for the detector.
            gaps = [7, 19, 11, 26][: 1 + index % 4]
            visit_every(server, user, entity_id, gaps, b"r" + bytes([index]), t0=index * DAY)
        assert server.run_maintenance().rejected == []
        laid_out, touched = self.spy(monkeypatch)
        target = users[5]
        history_id = target.history_id(entity_id)
        assert deliver(server, interaction(target, entity_id, t=200 * DAY), nonce=b"one")
        report = server.run_maintenance()
        assert report.rejected == []
        assert laid_out == [history_id]
        # Its old segment leaves the fold, its new one enters: nothing else.
        assert sorted(touched) == [history_id, history_id]
        fresh = from_scratch(town, server)
        assert server.all_summaries() == fresh.all_summaries()
        assert panels(server) == panels(fresh)

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_touch_schedule_lays_out_only_what_changed(self, monkeypatch, n_shards):
        """Cycle after cycle, a few users visit a few entities and rewrite
        some opinion slots: the histories laid out are at most those
        that gained a record or were created since the last cycle."""
        town = build_town(TownConfig(n_users=16), seed=40)
        server = RSPServer(
            catalog=town.entities, key_seed=40, require_tokens=False, n_shards=n_shards
        )
        entities = [entity.entity_id for entity in town.entities[:6]]
        users = [DeviceIdentity.create(f"t-{index}", seed=index) for index in range(8)]
        laid_out, _touched = self.spy(monkeypatch)
        rng = make_rng(3, "tests/service/touch-schedule")
        nonce = 0
        for cycle in range(8):
            changed: set[str] = set()
            for _visit in range(int(rng.integers(1, 6))):
                user = users[int(rng.integers(len(users)))]
                entity_id = entities[int(rng.integers(len(entities)))]
                nonce += 1
                t = (cycle * 30 + float(rng.integers(0, 30))) * DAY
                record = interaction(user, entity_id, t=t)
                assert deliver(server, record, nonce=nonce.to_bytes(4, "big"))
                changed.add(record.history_id)
                if rng.random() < 0.5:
                    nonce += 1
                    opinion = OpinionUpload(
                        history_id=record.history_id,
                        entity_id=entity_id,
                        rating=float(rng.integers(0, 11)) / 2,
                        seq=nonce,
                    )
                    assert deliver(server, opinion, nonce=nonce.to_bytes(4, "big"))
            del laid_out[:]
            server.run_maintenance()
            assert set(laid_out) <= changed
            assert len(laid_out) == len(set(laid_out))
        fresh = from_scratch(town, server)
        assert server.all_summaries() == fresh.all_summaries()
        assert panels(server) == panels(fresh)

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_compaction_moves_the_fold_with_the_popped_record(self, n_shards):
        """On compacting stores every append past the bound pops the
        history's oldest record, so the history's whole old segment,
        popped record included, must leave the group-signature fold.
        The first visit is a group outing of two users: once the first
        user's copy is popped, only the second user's copy holds it."""
        town = build_town(TownConfig(n_users=16), seed=40)
        server = RSPServer(
            catalog=town.entities, key_seed=40, require_tokens=False, n_shards=n_shards
        )
        for shard in server.shards:
            shard.store.max_records_per_history = 2
        entity_id = town.entities[0].entity_id
        for index in range(6):
            user = DeviceIdentity.create(f"b-{index}", seed=10 + index)
            visit_every(
                server, user, entity_id, [8, 15, 11][: 1 + index % 3], bytes([index, 0]),
                t0=(40 + 3 * index) * DAY,
            )
        regular, friend = (DeviceIdentity.create(f"c-{index}", seed=index) for index in range(2))
        assert deliver(server, interaction(friend, entity_id, t=DAY), nonce=b"friend")
        for visit, day in enumerate([1, 12, 29]):
            record = interaction(regular, entity_id, t=day * DAY)
            assert deliver(server, record, nonce=b"regular" + bytes([visit]))
            assert server.run_maintenance().rejected == []
            fresh = from_scratch(town, server)
            assert server.all_summaries() == fresh.all_summaries()
            assert panels(server) == panels(fresh)
        # The regular's first visit was popped; the friend's copy stays.
        summary = server.summary(entity_id)
        assert summary.n_interacting_users == 8
        assert summary.effective_interactions == summary.raw_interactions
