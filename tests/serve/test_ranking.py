"""Pins for the serve-path ranking spec (docs/SERVING.md).

Four contracts, each load-bearing for byte-identical serving:

* **totality** — the composite key ``(-score, distance, entity_id)`` is a
  strict total order, so any permutation of the candidates sorts to the
  identical ranking (byte-comparable renders across deployments);
* **monotonicity** — ``helpfulness_signal`` is monotone in
  ``inferred_weight`` and ``serve_score`` is monotone in the signal (and
  in its weight), so maturing histories can only help an entity;
* **golden values** — the documented defaults produce exactly the pinned
  scores for the canonical evidence shapes (empty, one review, a
  well-covered entity), so a silent spec change fails loudly;
* **top-k selection** — ``respond`` builds only the results it keeps,
  and they equal the full build-and-sort reference cut to ``limit``,
  ``n_matches`` and rendered bytes included.
"""

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import EntityOpinionSummary
from repro.core.visualization import compare_panels, entity_panels
from repro.serve.engine import (
    QueryEngine,
    ServeQuery,
    ServeResponse,
    ServeResult,
    empty_summary,
)
from repro.serve.index import SummaryIndex, price_tag
from repro.serve.ranking import (
    DEFAULT_RANKING,
    RankingConfig,
    helpfulness_signal,
    rank_key,
    serve_score,
)
from repro.world.entities import Entity, EntityKind
from repro.world.geography import CityGrid, Point


def summary(
    entity_id="e",
    n_explicit=0,
    explicit_mean=None,
    n_inferred=0,
    inferred_mean=None,
    inferred_weight=0.0,
):
    return EntityOpinionSummary(
        entity_id=entity_id,
        n_explicit_reviews=n_explicit,
        explicit_mean=explicit_mean,
        explicit_histogram=[0] * 5,
        n_inferred_opinions=n_inferred,
        inferred_mean=inferred_mean,
        inferred_histogram=[0] * 5,
        n_interacting_users=n_inferred,
        effective_interactions=float(n_inferred),
        raw_interactions=n_inferred,
        inferred_weight=inferred_weight,
    )


class TestGoldenScores:
    def test_empty_summary_scores_exactly_the_prior(self):
        assert serve_score(empty_summary("e")) == pytest.approx(2.5, abs=0)

    def test_single_five_star_review(self):
        # smoothed (5*1 + 2.5*5)/6, volume 0.15*ln 2, helpfulness 1.
        got = serve_score(summary(n_explicit=1, explicit_mean=5.0))
        assert got == pytest.approx(3.520638743750659, abs=1e-12)

    def test_single_one_star_review(self):
        got = serve_score(summary(n_explicit=1, explicit_mean=1.0))
        assert got == pytest.approx(2.853972077083992, abs=1e-12)

    def test_forty_good_inferences_beat_one_perfect_review(self):
        # The docstring's smoothing claim: one 5-star review does not
        # outrank forty 4.2-star inferences from mature histories.
        one_review = serve_score(summary(n_explicit=1, explicit_mean=5.0))
        forty = serve_score(
            summary(n_inferred=40, inferred_mean=4.2, inferred_weight=40.0)
        )
        assert forty > one_review

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RankingConfig(helpfulness_weight=-0.1)
        with pytest.raises(ValueError):
            RankingConfig(volume_weight=-1.0)
        with pytest.raises(ValueError):
            RankingConfig(prior_weight=-1.0)


class TestHelpfulnessSignal:
    def test_no_opinions_is_zero(self):
        assert helpfulness_signal(empty_summary("e")) == 0.0

    def test_explicit_reviews_are_fully_helpful(self):
        assert helpfulness_signal(
            summary(n_explicit=3, explicit_mean=4.0)
        ) == pytest.approx(1.0)

    def test_monotone_in_inferred_weight(self):
        weights = [0.0, 0.5, 2.0, 5.0, 9.9, 10.0]
        signals = [
            helpfulness_signal(
                summary(n_inferred=10, inferred_mean=4.0, inferred_weight=w)
            )
            for w in weights
        ]
        assert signals == sorted(signals)
        assert signals[0] == 0.0 and signals[-1] == pytest.approx(1.0)

    def test_weight_is_clipped_at_the_opinion_count(self):
        capped = summary(n_inferred=10, inferred_mean=4.0, inferred_weight=12.0)
        full = summary(n_inferred=10, inferred_mean=4.0, inferred_weight=10.0)
        assert helpfulness_signal(capped) == helpfulness_signal(full)


class TestMonotonicity:
    def test_score_monotone_in_inferred_weight(self):
        scores = [
            serve_score(
                summary(n_inferred=10, inferred_mean=4.0, inferred_weight=w)
            )
            for w in (0.5, 2.0, 5.0, 9.0, 10.0)
        ]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_score_monotone_in_helpfulness_weight(self):
        evidence = summary(n_inferred=10, inferred_mean=4.0, inferred_weight=5.0)
        scores = [
            serve_score(evidence, RankingConfig(helpfulness_weight=hw))
            for hw in (0.0, 0.25, 0.5, 1.0)
        ]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_mature_histories_outrank_thin_ones_at_the_same_mean(self):
        # Same count, same mean — the sybil-shaped (thin) evidence loses.
        mature = summary(n_inferred=20, inferred_mean=4.0, inferred_weight=20.0)
        thin = summary(n_inferred=20, inferred_mean=4.0, inferred_weight=4.0)
        assert serve_score(mature) > serve_score(thin)


class TestTotalOrder:
    def test_equal_scores_and_distances_break_on_entity_id(self):
        keys = [rank_key(3.0, 1.0, eid) for eid in ("b", "a", "c")]
        assert sorted(keys) == [
            rank_key(3.0, 1.0, "a"),
            rank_key(3.0, 1.0, "b"),
            rank_key(3.0, 1.0, "c"),
        ]

    def test_every_permutation_sorts_identically(self):
        # Deliberate collisions on score and on (score, distance).
        rows = [
            (3.0, 1.0, "alpha"),
            (3.0, 1.0, "beta"),
            (3.0, 2.0, "gamma"),
            (2.0, 0.5, "delta"),
            (2.0, 0.5, "epsilon"),
        ]
        baseline = sorted(rows, key=lambda r: rank_key(*r))
        for perm in itertools.permutations(rows):
            assert sorted(perm, key=lambda r: rank_key(*r)) == baseline

    def test_distinct_results_never_compare_equal(self):
        a = rank_key(3.0, 1.0, "a")
        b = rank_key(3.0, 1.0, "b")
        assert a != b and (a < b) != (b < a)


class TestEngineSanity:
    """Unsummarized and single-opinion entities rank sanely in situ."""

    def make_engine(self):
        grid = CityGrid()
        catalog = [
            Entity(
                entity_id=f"thai-{i}",
                kind=EntityKind.RESTAURANT,
                category="thai",
                location=Point(1.0 + i, 1.0),
                quality=3.0,
            )
            for i in range(3)
        ]
        return QueryEngine(SummaryIndex(catalog, grid=grid))

    def test_unsummarized_entities_score_the_prior_and_sort_by_distance(self):
        engine = self.make_engine()
        query = ServeQuery(category="thai", near=Point(0.0, 1.0), radius_km=10.0)
        ranked = engine.rank(query, {})
        assert [r.entity.entity_id for r in ranked] == [
            "thai-0",
            "thai-1",
            "thai-2",
        ]
        assert all(r.score == pytest.approx(2.5) for r in ranked)

    def test_single_good_review_lifts_an_entity_over_the_empty_ones(self):
        engine = self.make_engine()
        query = ServeQuery(category="thai", near=Point(0.0, 1.0), radius_km=10.0)
        summaries = {"thai-2": summary("thai-2", n_explicit=1, explicit_mean=5.0)}
        ranked = engine.rank(query, summaries)
        # thai-2 is the farthest yet ranks first on evidence.
        assert ranked[0].entity.entity_id == "thai-2"
        assert ranked[0].score > ranked[1].score

    def test_a_replaced_summary_is_rescored_never_served_from_the_memo(
        self, monkeypatch
    ):
        engine = self.make_engine()
        scored = []

        def counting_score(summary, config):
            scored.append(summary)
            return serve_score(summary, config)

        monkeypatch.setattr("repro.serve.engine.serve_score", counting_score)
        query = ServeQuery(category="thai", near=Point(0.0, 1.0), radius_km=10.0)
        good = summary("thai-2", n_explicit=1, explicit_mean=5.0)
        assert engine.rank(query, {"thai-2": good})[0].score == serve_score(good)
        assert engine.rank(query, {"thai-2": good})[0].score == serve_score(good)
        assert scored == [good]  # the second read reused the memo
        # The next cycle publishes a new object for the same entity id.
        bad = summary("thai-2", n_explicit=1, explicit_mean=1.0)
        [result] = [
            r for r in engine.rank(query, {"thai-2": bad}) if r.summary is bad
        ]
        assert result.score == serve_score(bad) < serve_score(good)
        assert scored == [good, bad]


class TestEngineResponses:
    """What a response holds: every match in range and category, reviewed
    or not, rendered with the query and the top entities' panels."""

    def make_engine(self):
        catalog = [
            Entity(
                entity_id=f"thai-{i}",
                kind=EntityKind.RESTAURANT,
                category="thai",
                location=Point(1.0 + i, 1.0),
                quality=3.0,
            )
            for i in range(5)
        ] + [
            Entity(
                entity_id="sushi-0",
                kind=EntityKind.RESTAURANT,
                category="japanese",
                location=Point(2.0, 2.0),
                quality=3.0,
            )
        ]
        return QueryEngine(SummaryIndex(catalog, grid=CityGrid()))

    def test_query_filters_category_and_radius(self):
        query = ServeQuery(category="thai", near=Point(1.0, 1.0), radius_km=2.0)
        ids = [r.entity.entity_id for r in self.make_engine().rank(query, {})]
        assert sorted(ids) == ["thai-0", "thai-1", "thai-2"]

    def test_unreviewed_entities_still_listed(self):
        query = ServeQuery(category="thai", near=Point(1.0, 1.0))
        response = self.make_engine().respond(query, {}, {})
        assert response.n_results == 5
        assert all(r.summary.total_opinions == 0 for r in response.results)

    def test_render_names_the_query_and_shows_the_panels(self):
        query = ServeQuery(category="thai", near=Point(1.0, 1.0))
        rendered = self.make_engine().respond(query, {}, {}).render()
        assert "Best 'thai'" in rendered
        assert "Visits per user — thai-0" in rendered

    def test_nonpositive_radius_is_rejected(self):
        for radius_km in (0.0, -1.0):
            with pytest.raises(ValueError):
                ServeQuery(category="thai", near=Point(0.0, 0.0), radius_km=radius_km)

    def test_equal_queries_hash_equal(self):
        # The query is the cache key: equal fields, separately built,
        # must land on one entry.
        query = ServeQuery(category="thai", near=Point(1.5, 2.0), attribute="price:2")
        again = ServeQuery(category="thai", near=Point(1.5, 2.0), attribute="price:2")
        assert query == again and hash(query) == hash(again)
        assert len({query, again, ServeQuery(category="thai", near=Point(2.0, 1.5))}) == 2

    def test_replace_recomputes_the_stored_hash(self):
        query = ServeQuery(category="thai", near=Point(1.5, 2.0))
        moved = dataclasses.replace(query, near=Point(2.0, 1.5), limit=3)
        assert hash(moved) == hash(ServeQuery(category="thai", near=Point(2.0, 1.5), limit=3))
        assert dataclasses.replace(moved, near=Point(1.5, 2.0), limit=10) == query
        assert hash(dataclasses.replace(moved, near=Point(1.5, 2.0), limit=10)) == hash(query)

    def test_stored_hash_stays_out_of_repr_eq_and_pickle(self):
        # ``str`` hashes are salted per process: a pickled hash would be
        # wrong in the process that loads it.
        query = ServeQuery(category="thai", near=Point(1.5, 2.0), attribute="price:2")
        assert "hash" not in repr(query)
        assert repr(query) == repr(
            ServeQuery(category="thai", near=Point(1.5, 2.0), attribute="price:2")
        )
        assert "_hash" not in [field.name for field in dataclasses.fields(query)]
        other_hash = copy.copy(query)
        object.__setattr__(other_hash, "_hash", hash(query) + 1)
        assert other_hash == query
        assert "_hash" not in query.__getstate__()
        assert b"_hash" not in pickle.dumps(query)
        loaded = pickle.loads(pickle.dumps(query))
        assert loaded == query and hash(loaded) == hash(query)
        assert copy.deepcopy(query) == query and hash(copy.deepcopy(query)) == hash(query)


#: Evidence shapes a drawn entity may carry; ``None`` leaves it
#: unsummarized, and the zero-evidence shape ties it on score.
EVIDENCE = (
    None,
    dict(),
    dict(n_explicit=1, explicit_mean=5.0),
    dict(n_explicit=2, explicit_mean=3.0),
    dict(n_inferred=10, inferred_mean=4.0, inferred_weight=5.0),
)


@st.composite
def scenes(draw):
    """A small catalog on a lattice (so distances tie), summaries drawn
    from a few shapes (so scores tie), some published panels, and a
    query with any ``limit``/``compare_top`` and attribute filter."""
    n = draw(st.integers(min_value=1, max_value=16))
    catalog, summaries, panels = [], {}, {}
    for i in range(n):
        entity_id = f"e{i:02d}"
        catalog.append(
            Entity(
                entity_id=entity_id,
                kind=EntityKind.RESTAURANT,
                category=draw(st.sampled_from(["thai", "thai", "sushi"])),
                location=Point(
                    float(draw(st.integers(-1, 7))), float(draw(st.integers(-1, 7)))
                ),
                quality=3.0,
                price_level=draw(st.integers(1, 3)),
            )
        )
        evidence = draw(st.sampled_from(EVIDENCE))
        if evidence is not None:
            summaries[entity_id] = summary(entity_id, **evidence)
        if draw(st.booleans()):
            panels[entity_id] = entity_panels(f"{entity_id}-published", [])
    query = ServeQuery(
        category="thai",
        near=Point(float(draw(st.integers(0, 6))), float(draw(st.integers(0, 6)))),
        radius_km=draw(st.sampled_from([1.0, 2.0, 2.5, 4.0, 30.0])),
        attribute=draw(st.sampled_from([None, price_tag(1), price_tag(2)])),
        limit=draw(st.integers(1, 6)),
        compare_top=draw(st.integers(0, 8)),
    )
    return catalog, summaries, panels, query


def reference_response(catalog, query, summaries, panels):
    """The spec: build every result, sort by ``rank_key``, cut."""
    results = []
    for entity in catalog:
        tags = {*entity.attributes, price_tag(entity.price_level)}
        distance = query.near.distance_to(entity.location)
        if (
            entity.category != query.category
            or (query.attribute is not None and query.attribute not in tags)
            or distance > query.radius_km
        ):
            continue
        evidence = summaries.get(entity.entity_id)
        if evidence is None:
            evidence = empty_summary(entity.entity_id)
        results.append(ServeResult(entity, distance, evidence, serve_score(evidence)))
    results.sort(key=lambda r: rank_key(r.score, r.distance_km, r.entity.entity_id))
    top = [r.entity.entity_id for r in results[: query.compare_top]]
    visualization = (
        compare_panels(
            {
                entity_id: panels.get(entity_id) or entity_panels(entity_id, [])
                for entity_id in top
            }
        )
        if top
        else None
    )
    return results, ServeResponse(
        query=query,
        results=tuple(results[: query.limit]),
        n_matches=len(results),
        visualization=visualization,
    )


class TestTopKSelection:
    """``respond`` keeps only the prefix it returns, and that prefix is
    the full sort's, bytes and all."""

    @given(scenes())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_respond_equals_the_full_sort_cut_to_limit(self, scene):
        catalog, summaries, panels, query = scene
        engine = QueryEngine(SummaryIndex(catalog, grid=CityGrid(6.0, 3, 3)))
        ranked, want = reference_response(catalog, query, summaries, panels)
        # Twice: the second answer reuses the empty-history panels.
        for _ in range(2):
            got = engine.respond(query, summaries, panels)
            assert got.results == want.results
            assert got.n_matches == want.n_matches
            assert got.visualization == want.visualization
            assert got.render() == want.render()
        assert engine.rank(query, summaries) == ranked
