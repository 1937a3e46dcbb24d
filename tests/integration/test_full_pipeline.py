"""End-to-end integration: world → sensing → client → network → server.

These tests exercise the complete Figure 2 architecture on one shared
simulation and assert the paper's qualitative claims hold through the whole
stack — not just in isolated modules.
"""

import numpy as np
import pytest

from repro.core.discovery import Query
from repro.orchestration.pipeline import PipelineConfig, run_full_pipeline, train_classifier
from repro.util.clock import DAY
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town
from repro.durability.snapshot import capture_state


@pytest.fixture(scope="module")
def outcome():
    town = build_town(TownConfig(n_users=80), seed=31)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=150), seed=31
    ).run()
    config = PipelineConfig(horizon_days=150.0, seed=31)
    return town, result, run_full_pipeline(town, result, config)


class TestCoverage:
    def test_opinions_multiply(self, outcome):
        """A2 / the paper's thesis: implicit inference dramatically raises
        the number of opinions available per entity."""
        _, _, out = outcome
        assert out.coverage_gain() > 3.0

    def test_inferred_opinions_present(self, outcome):
        _, _, out = outcome
        assert out.server.n_opinions > out.server.n_explicit_reviews

    def test_most_inferences_reach_entities_with_no_reviews(self, outcome):
        """The whole point: entities nobody reviews still accumulate opinions."""
        _, _, out = outcome
        helped = [
            entity_id
            for entity_id, total in out.total_per_entity.items()
            if out.explicit_per_entity.get(entity_id, 0) == 0 and total > 0
        ]
        assert len(helped) > 10


class TestInferenceQuality:
    def test_inference_error_bounded(self, outcome):
        """Inferred ratings are noisier than explicit ones but usable —
        within ~1 star of ground truth on average."""
        _, _, out = outcome
        assert out.inference_errors, "pipeline should produce scoreable inferences"
        assert out.mean_absolute_error < 1.2

    def test_explicit_reviews_more_accurate_than_inference(self, outcome):
        """Sanity direction: implicit inference cannot beat the user's own
        stated rating."""
        _, _, out = outcome
        assert np.mean(out.review_errors) < out.mean_absolute_error

    def test_abstention_is_selective_not_total(self, outcome):
        _, _, out = outcome
        assert 0.05 < out.abstention_rate < 0.95


class TestPrivacyProperties:
    def test_server_never_sees_user_ids_in_histories(self, outcome):
        """No history identifier equals or embeds a user id."""
        town, _, out = outcome
        user_ids = {user.user_id for user in town.users}
        for history in capture_state(out.server)["histories"]:
            assert history["history_id"] not in user_ids
            assert not any(uid in history["history_id"] for uid in user_ids)

    def test_every_stored_record_was_token_checked(self, outcome):
        _, _, out = outcome
        assert out.server.rejected_envelopes == 0  # all clients played by the rules
        # and the number of stored records is bounded by issued tokens:
        # each record spent exactly one token.
        n_stored = out.server.n_records + out.server.n_opinions
        assert n_stored == out.server._redeemer.n_redeemed

    def test_histories_per_user_entity_pair(self, outcome):
        """Each (client, entity) pair maps to exactly one history."""
        _, _, out = outcome
        seen: set[str] = set()
        for user_id, client in out.clients.items():
            for entity_id in client.snapshot.entity_ids():
                history_id = client.identity.history_id(entity_id)
                assert history_id not in seen
                seen.add(history_id)


class TestSearchIntegration:
    def test_search_surfaces_inferred_summaries(self, outcome):
        town, _, out = outcome
        restaurants = [e for e in town.entities if e.kind.label == "restaurant"]
        center = town.grid.zones[len(town.grid.zones) // 2].center
        response = out.server.search(
            Query(category=restaurants[0].category, near=center, radius_km=15.0)
        )
        assert response.n_results > 0
        assert any(r.summary.n_inferred_opinions > 0 for r in response.results)

    def test_search_renders(self, outcome):
        town, _, out = outcome
        response = out.server.search(
            Query(category="chinese", near=town.grid.zones[0].center, radius_km=20.0)
        )
        assert "chinese" in response.render()


class TestTrainClassifierIntegration:
    def test_training_uses_posting_minority(self, outcome):
        town, result, _ = outcome
        classifier = train_classifier(town, result, 150 * DAY, seed=31)
        assert classifier.is_fitted
        weights = classifier.feature_weights()
        assert len(weights) > 10


class TestCorrectionPropagation:
    def test_user_correction_reaches_server(self, outcome):
        """Section 5: the user corrects an inference; the client re-uploads
        and the server's latest-wins opinion store reflects it."""
        from repro.privacy.anonymity import batching_network
        from repro.util.clock import DAY

        town, _, out = outcome
        server = out.server
        client = next(
            c for c in out.clients.values()
            if any(e.effective_rating is not None for e in c.transparency.audit())
        )
        entry = next(
            e for e in client.transparency.audit() if e.effective_rating is not None
        )
        history_id = client.identity.history_id(entry.entity_id)
        _, before, _ = capture_state(server)["opinions"][history_id]

        corrected = 1.0 if before > 2.5 else 5.0
        client.transparency.correct(entry.entity_id, corrected)
        # The client re-stages on its next observation cycle; simulate by
        # re-staging directly (interactions unchanged).
        client._stage_envelopes({})
        network = batching_network(seed=99)
        client.sync(network, server.issuer, now=200 * DAY)
        server.receive_all(network.deliveries_until(203 * DAY))

        assert capture_state(server)["opinions"][history_id][1] == corrected
        server.run_maintenance()
        summary = server.summary(entry.entity_id)
        assert summary is not None
