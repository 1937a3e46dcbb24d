"""Tests for the RSP client app."""

import dataclasses

import pytest

from repro.client.app import RSPClient, infer_home
from repro.core.aggregation import OpinionUpload
from repro.privacy.anonymity import batching_network
from repro.privacy.history_store import InteractionUpload
from repro.privacy.tokens import TokenIssuer
from repro.sensing.policy import duty_cycled_policy
from repro.sensing.resolution import EntityResolver
from repro.sensing.sensors import generate_trace, trace_carries
from repro.orchestration.pipeline import train_classifier
from repro.util.clock import DAY
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town


@pytest.fixture(scope="module")
def setting():
    town = build_town(TownConfig(n_users=60), seed=12)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=150), seed=12
    ).run()
    horizon = 150 * DAY
    classifier = train_classifier(town, result, horizon, seed=12)
    return town, result, horizon, classifier


def active_user(result):
    counts = {}
    for event in result.events:
        counts[event.user_id] = counts.get(event.user_id, 0) + 1
    return max(counts, key=counts.get)


def make_client(town, classifier, user_id, seed=1):
    return RSPClient(
        device_id=user_id, catalog=town.entities, classifier=classifier, seed=seed
    )


class TestInferHome:
    def test_home_is_where_the_dwell_is(self, setting):
        town, result, horizon, _ = setting
        user_id = active_user(result)
        user = town.user(user_id)
        trace = generate_trace(user_id, town, result, horizon, duty_cycled_policy(), seed=12)
        inferred = infer_home(trace)
        # The inferred anchor should be near home or work.
        assert min(
            inferred.distance_to(user.home), inferred.distance_to(user.work)
        ) < 0.5

    def test_empty_trace_fallback(self):
        from repro.sensing.traces import DeviceTrace
        assert infer_home(DeviceTrace(user_id="u")) is not None


class TestObserveTrace:
    def test_populates_snapshot_and_log(self, setting):
        town, result, horizon, classifier = setting
        user_id = active_user(result)
        client = make_client(town, classifier, user_id)
        trace = generate_trace(user_id, town, result, horizon, duty_cycled_policy(), seed=12)
        interactions = client.observe_trace(trace, now=horizon)
        assert interactions
        assert client.transparency.n_entries > 0
        assert client.stats.interactions_observed == len(interactions)
        assert client.n_pending > 0

    def test_snapshot_respects_retention(self, setting):
        town, result, horizon, classifier = setting
        user_id = active_user(result)
        client = RSPClient(
            device_id=user_id, catalog=town.entities, classifier=classifier,
            seed=1, snapshot_retention=20 * DAY,
        )
        trace = generate_trace(user_id, town, result, horizon, duty_cycled_policy(), seed=12)
        client.observe_trace(trace, now=horizon)
        for interactions in client.snapshot.leak().values():
            for interaction in interactions:
                assert interaction.time >= horizon - 20 * DAY

    def test_suppressed_entities_not_uploaded(self, setting):
        town, result, horizon, classifier = setting
        user_id = active_user(result)

        client = make_client(town, classifier, user_id, seed=2)
        trace = generate_trace(user_id, town, result, horizon, duty_cycled_policy(), seed=12)
        client.observe_trace(trace, now=horizon)
        target = client.transparency.audit()[0].entity_id

        suppressing = make_client(town, classifier, user_id, seed=2)
        interactions = suppressing.resolver.resolve(trace)
        suppressing.observe_trace(trace, now=horizon)
        # Re-observe after suppression: staged envelopes rebuilt.
        suppressing.transparency.suppress(target)
        suppressing._pending.clear()
        suppressing._stage_envelopes({})
        uploaded_entities = {
            pending.record.entity_id for pending in suppressing._pending
        }
        assert target not in uploaded_entities


    def test_trace_window_contract(self, setting):
        """Windows must continue the folded samples; a full trace restarts."""
        town, result, horizon, classifier = setting
        user_id = active_user(result)
        carry = trace_carries(result, [user_id])[user_id]
        client = make_client(town, classifier, user_id)
        resolver = EntityResolver(town.entities)

        def window(at):
            return generate_trace(user_id, town, result, at, seed=12, carry=carry)

        client.observe_trace(window(horizon / 3), now=horizon / 3)
        second = window(2 * horizon / 3)
        assert second.window_start > 0
        skipped = dataclasses.replace(second, window_start=second.window_start + 1)
        with pytest.raises(ValueError, match="folded"):
            client.observe_trace(skipped, now=2 * horizon / 3)

        full = generate_trace(user_id, town, result, 2 * horizon / 3, seed=12)
        assert client.observe_trace(full, now=2 * horizon / 3) == resolver.resolve(full)
        # The full trace left the fold where the carry's windows continue.
        third = window(horizon)
        assert client.observe_trace(third, now=horizon) == resolver.resolve(
            generate_trace(user_id, town, result, horizon, seed=12)
        )


class TestSync:
    def test_envelopes_flow_with_tokens(self, setting):
        town, result, horizon, classifier = setting
        user_id = active_user(result)
        client = make_client(town, classifier, user_id, seed=3)
        trace = generate_trace(user_id, town, result, horizon, duty_cycled_policy(), seed=12)
        client.observe_trace(trace, now=horizon)
        issuer = TokenIssuer(quota_per_day=500, key_seed=3, key_bits=256)
        network = batching_network(seed=3)
        submitted = client.sync(network, issuer, now=horizon)
        assert submitted == client.stats.envelopes_submitted
        deliveries = network.deliveries_until(horizon + 3 * DAY)
        assert len(deliveries) == submitted
        for delivery in deliveries:
            assert delivery.payload.token is not None

    def test_quota_defers_not_drops(self, setting):
        town, result, horizon, classifier = setting
        user_id = active_user(result)
        client = make_client(town, classifier, user_id, seed=4)
        trace = generate_trace(user_id, town, result, horizon, duty_cycled_policy(), seed=12)
        client.observe_trace(trace, now=horizon)
        pending_before = client.n_pending
        issuer = TokenIssuer(quota_per_day=2, key_seed=4, key_bits=256)
        network = batching_network(seed=4)
        submitted = client.sync(network, issuer, now=horizon)
        assert submitted == 2
        assert client.n_pending == pending_before - 2
        # Next day, quota refreshes and more goes out.
        submitted_next = client.sync(network, issuer, now=horizon + 1.5 * DAY)
        assert submitted_next == 2

    def test_upload_types(self, setting):
        town, result, horizon, classifier = setting
        user_id = active_user(result)
        client = make_client(town, classifier, user_id, seed=5)
        trace = generate_trace(user_id, town, result, horizon, duty_cycled_policy(), seed=12)
        client.observe_trace(trace, now=horizon)
        records = [pending.record for pending in client._pending]
        assert any(isinstance(r, InteractionUpload) for r in records)
        if client.stats.inferences_made:
            assert any(isinstance(r, OpinionUpload) for r in records)


class TestPersonalizedSearch:
    def test_personalize_reranks_with_own_opinions(self, setting):
        from repro.orchestration.pipeline import PipelineConfig, run_full_pipeline
        from repro.serve.engine import ServeQuery

        town, result, horizon, classifier = setting
        config = PipelineConfig(horizon_days=horizon / (24 * 3600.0), seed=12)
        outcome = run_full_pipeline(town, result, config, classifier=classifier)

        user_id = active_user(result)
        client = outcome.clients[user_id]
        # Pick a category the user has an opinion in, if any.
        rated = [
            entry for entry in client.transparency.audit()
            if entry.effective_rating is not None
        ]
        if not rated:
            import pytest
            pytest.skip("user formed no shareable opinions in this world")
        target_entity = town.entity(rated[0].entity_id)
        response = outcome.server.query(
            ServeQuery(category=target_entity.category,
                       near=target_entity.location, radius_km=20.0,
                       limit=len(town.entities))
        )
        ranked = client.personalize_response(response)
        assert len(ranked) == response.n_results
        by_id = {r.entity_id: r for r in ranked}
        assert by_id[target_entity.entity_id].personal_adjustment != 0.0

    def test_personalize_without_observation_uses_origin(self, setting):
        town, _, _, classifier = setting
        from repro.serve.engine import ServeQuery
        from repro.service.server import RSPServer

        client = make_client(town, classifier, "fresh-device", seed=9)
        response = RSPServer(town.entities, key_bits=256).query(
            ServeQuery(category="thai", near=town.grid.zones[0].center, radius_km=30.0)
        )
        ranked = client.personalize_response(response)
        assert len(ranked) == response.n_results
