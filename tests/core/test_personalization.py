"""Tests for client-side personalized re-ranking (Section 5 incentives)."""

import pytest

from repro.client.transparency import TransparencyLog
from repro.core.aggregation import EntityOpinionSummary
from repro.core.classifier import InferredOpinion
from repro.core.personalization import PersonalizationWeights, personalize
from repro.serve.engine import ServeQuery, ServeResponse, ServeResult
from repro.world.entities import Entity, EntityKind
from repro.world.geography import Point


def entity(entity_id, x):
    return Entity(
        entity_id=entity_id, kind=EntityKind.RESTAURANT, category="thai",
        location=Point(x, 0.0), quality=3.0, price_level=2,
    )


def summary(entity_id):
    return EntityOpinionSummary(
        entity_id=entity_id, n_explicit_reviews=0, explicit_mean=None,
        explicit_histogram=[0] * 5, n_inferred_opinions=0, inferred_mean=None,
        inferred_histogram=[0] * 5, n_interacting_users=0,
        effective_interactions=0.0, raw_interactions=0,
    )


def response(entities, scores):
    results = tuple(
        ServeResult(entity=e, distance_km=e.location.x, summary=summary(e.entity_id), score=s)
        for e, s in zip(entities, scores)
    )
    return ServeResponse(
        query=ServeQuery(category="thai", near=Point(0, 0), radius_km=50.0),
        results=results,
        n_matches=len(results),
        visualization=None,
    )


HOME = Point(0.0, 0.0)


class TestPersonalize:
    def test_own_favourite_floats_up(self):
        a, b = entity("thai-a", 1.0), entity("thai-b", 1.0)
        log = TransparencyLog()
        log.record("thai-b", 0.0, InferredOpinion(rating=5.0, confidence=0.3), "loyal")
        ranked = personalize(response([a, b], [3.0, 3.0]), log, HOME)
        assert ranked[0].entity_id == "thai-b"
        assert ranked[0].personal_adjustment > 0

    def test_own_disliked_sinks(self):
        a, b = entity("thai-a", 1.0), entity("thai-b", 1.0)
        log = TransparencyLog()
        log.record("thai-a", 0.0, InferredOpinion(rating=1.0, confidence=0.3), "bad meal")
        ranked = personalize(response([a, b], [3.0, 3.0]), log, HOME)
        assert ranked[0].entity_id == "thai-b"
        assert ranked[-1].personal_adjustment < 0

    def test_user_correction_wins_over_model(self):
        """A corrected opinion (Section 5 transparency) drives the re-rank."""
        a, b = entity("thai-a", 1.0), entity("thai-b", 1.0)
        log = TransparencyLog()
        log.record("thai-a", 0.0, InferredOpinion(rating=5.0, confidence=0.3), "model liked it")
        log.correct("thai-a", 1.0)  # the user disagrees
        ranked = personalize(response([a, b], [3.0, 3.0]), log, HOME)
        assert ranked[0].entity_id == "thai-b"

    def test_far_entities_penalized(self):
        near, far = entity("thai-near", 2.0), entity("thai-far", 20.0)
        ranked = personalize(response([near, far], [3.0, 3.0]), TransparencyLog(), HOME)
        assert ranked[0].entity_id == "thai-near"

    def test_within_tolerance_no_distance_penalty(self):
        close = entity("thai-a", 1.0)
        ranked = personalize(response([close], [3.0]), TransparencyLog(), HOME)
        assert ranked[0].personal_adjustment == 0.0

    def test_strong_server_signal_survives_mild_personal_penalty(self):
        """Personalization adjusts, it does not override a big quality gap."""
        good_far = entity("thai-good", 5.0)
        bad_near = entity("thai-bad", 1.0)
        ranked = personalize(
            response([good_far, bad_near], [4.5, 2.0]), TransparencyLog(), HOME
        )
        assert ranked[0].entity_id == "thai-good"

    def test_empty_log_preserves_local_order(self):
        a, b = entity("thai-a", 1.0), entity("thai-b", 2.0)
        ranked = personalize(response([a, b], [4.0, 3.0]), TransparencyLog(), HOME)
        assert [r.entity_id for r in ranked] == ["thai-a", "thai-b"]

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            PersonalizationWeights(travel_tolerance_km=0)
