"""Tests for aggregation (group deflation) and visualizations.

The search interface is the serving layer; ``tests/serve`` covers it.
"""

import pytest

from repro.core.aggregation import (
    OpinionUpload,
    deflate_groups,
    rating_histogram,
    summarize_entity,
)
from repro.core.visualization import (
    compare_entities,
    distance_vs_visits,
    visits_per_user_histogram,
)
from repro.privacy.history_store import HistoryStore, InteractionUpload
from repro.privacy.identifiers import DeviceIdentity
from repro.util.clock import DAY


def make_history_store(specs):
    """specs: list of (device, entity, [(time, duration, travel)])"""
    store = HistoryStore()
    for device, entity_id, records in specs:
        identity = DeviceIdentity.create(device, seed=hash(device) % 1000)
        for t, duration, travel in records:
            store.append(
                InteractionUpload(
                    history_id=identity.history_id(entity_id),
                    entity_id=entity_id,
                    interaction_type="visit",
                    event_time=t,
                    duration=duration,
                    travel_km=travel,
                ),
                arrival_time=t,
            )
    return store


class TestRatingHistogram:
    def test_buckets(self):
        histogram = rating_histogram([0.5, 1.5, 2.5, 3.5, 4.5, 5.0])
        assert histogram == [1, 1, 1, 1, 2]

    def test_empty(self):
        assert rating_histogram([]) == [0, 0, 0, 0, 0]


class TestGroupDeflation:
    def test_covisits_collapse(self):
        """Three phones at the same table produce one effective visit."""
        store = make_history_store(
            [
                ("a", "r1", [(10 * DAY, 3600.0, 1.0)]),
                ("b", "r1", [(10 * DAY, 3600.0, 2.0)]),
                ("c", "r1", [(10 * DAY, 3600.0, 3.0)]),
            ]
        )
        effective, raw = deflate_groups(store.histories_for_entity("r1"))
        assert raw == 3
        assert effective == 1

    def test_independent_visits_not_collapsed(self):
        store = make_history_store(
            [
                ("a", "r1", [(10 * DAY, 3600.0, 1.0)]),
                ("b", "r1", [(11 * DAY, 3600.0, 2.0)]),
                ("c", "r1", [(10 * DAY, 5400.0, 3.0)]),  # same day, diff duration
            ]
        )
        effective, raw = deflate_groups(store.histories_for_entity("r1"))
        assert raw == 3
        assert effective == 3

    def test_empty(self):
        assert deflate_groups([]) == (0.0, 0)


class TestSummarizeEntity:
    def test_summary_combines_sources(self):
        store = make_history_store(
            [
                ("a", "r1", [(1 * DAY, 3600.0, 1.0), (9 * DAY, 3600.0, 1.0)]),
                ("b", "r1", [(3 * DAY, 1800.0, 4.0)]),
            ]
        )
        histories = store.histories_for_entity("r1")
        identity_a = DeviceIdentity.create("a", seed=hash("a") % 1000)
        inferred = [
            OpinionUpload(
                history_id=identity_a.history_id("r1"), entity_id="r1", rating=4.2
            )
        ]
        summary = summarize_entity("r1", histories, inferred, explicit_ratings=[5.0, 3.0])
        assert summary.n_explicit_reviews == 2
        assert summary.explicit_mean == 4.0
        assert summary.n_inferred_opinions == 1
        assert summary.inferred_mean == pytest.approx(4.2)
        assert summary.total_opinions == 3
        assert summary.n_interacting_users == 2

    def test_opinions_from_filtered_histories_dropped(self):
        """An opinion whose history was fraud-rejected must not count."""
        store = make_history_store([("a", "r1", [(1 * DAY, 3600.0, 1.0)])])
        histories = store.histories_for_entity("r1")
        ghost = OpinionUpload(history_id="not-a-surviving-history", entity_id="r1", rating=5.0)
        summary = summarize_entity("r1", histories, [ghost], explicit_ratings=[])
        assert summary.n_inferred_opinions == 0

    def test_combined_mean_uses_influence_weights(self):
        """Three duplicate opinions from a single 1-interaction history
        carry 3 x 1/3 = 1 vote total, so they tie with one explicit review."""
        store = make_history_store([("a", "r1", [(1 * DAY, 3600.0, 1.0)])])
        histories = store.histories_for_entity("r1")
        identity = DeviceIdentity.create("a", seed=hash("a") % 1000)
        inferred = [
            OpinionUpload(history_id=identity.history_id("r1"), entity_id="r1", rating=4.0)
        ] * 3
        summary = summarize_entity("r1", histories, inferred, explicit_ratings=[1.0])
        assert summary.inferred_weight == pytest.approx(1.0)
        assert summary.combined_mean == pytest.approx((1.0 + 1.0 * 4.0) / 2)

    def test_influence_weight_saturates(self):
        from repro.core.aggregation import influence_weight

        assert influence_weight(0) == 0.0
        assert influence_weight(1) == pytest.approx(1 / 3)
        assert influence_weight(3) == 1.0
        assert influence_weight(30) == 1.0
        with pytest.raises(ValueError):
            influence_weight(-1)
        with pytest.raises(ValueError):
            influence_weight(1, maturity_interactions=0)

    def test_thin_histories_move_mean_less_than_mature_ones(self):
        """Section 4.3's influence argument: a sybil swarm of 1-visit
        histories rating 5.0 shifts the aggregate far less than the same
        number of mature honest histories would."""
        honest_specs = [
            (f"honest{i}", "r1", [(d * 20 * DAY, 3600.0, 2.0) for d in range(4)])
            for i in range(6)
        ]
        sybil_specs = [
            (f"sybil{i}", "r1", [(5 * DAY, 1800.0 + i, 1.0)]) for i in range(6)
        ]
        store = make_history_store(honest_specs + sybil_specs)
        histories = store.histories_for_entity("r1")
        opinions = []
        for i in range(6):
            identity = DeviceIdentity.create(f"honest{i}", seed=hash(f"honest{i}") % 1000)
            opinions.append(
                OpinionUpload(history_id=identity.history_id("r1"), entity_id="r1", rating=2.0)
            )
        for i in range(6):
            identity = DeviceIdentity.create(f"sybil{i}", seed=hash(f"sybil{i}") % 1000)
            opinions.append(
                OpinionUpload(history_id=identity.history_id("r1"), entity_id="r1", rating=5.0)
            )
        summary = summarize_entity("r1", histories, opinions, explicit_ratings=[])
        unweighted_mean = (6 * 2.0 + 6 * 5.0) / 12  # 3.5
        assert summary.inferred_mean < unweighted_mean - 0.4

    def test_rating_validation(self):
        with pytest.raises(ValueError):
            OpinionUpload(history_id="h", entity_id="e", rating=5.5)


class TestVisualizations:
    def test_visits_histogram_buckets(self):
        store = make_history_store(
            [
                ("a", "d1", [(i * 30 * DAY, 3600.0, 1.0) for i in range(1)]),
                ("b", "d1", [(i * 30 * DAY, 3600.0, 1.0) for i in range(2)]),
                ("c", "d1", [(i * 30 * DAY, 3600.0, 1.0) for i in range(4)]),
                ("d", "d1", [(i * 30 * DAY, 3600.0, 1.0) for i in range(12)]),
            ]
        )
        histogram = visits_per_user_histogram("d1", store.histories_for_entity("d1"))
        assert histogram.n_users == 4
        assert histogram.counts == (1, 1, 1, 0, 1)
        assert histogram.repeat_fraction == pytest.approx(0.75)

    def test_distance_vs_visits_correlation_sign(self):
        specs = []
        # Committed far patients: many visits, far.
        for index in range(6):
            specs.append(
                (
                    f"far{index}",
                    "d1",
                    [(i * 40 * DAY, 3600.0, 6.0 + index * 0.3) for i in range(8)],
                )
            )
        # Casual near patients: few visits, near.
        for index in range(6):
            specs.append(
                (
                    f"near{index}",
                    "d1",
                    [(i * 40 * DAY, 3600.0, 0.5 + index * 0.1) for i in range(2)],
                )
            )
        store = make_history_store(specs)
        series = distance_vs_visits("d1", store.histories_for_entity("d1"))
        assert series.correlation > 0.8

    def test_one_time_visitors_excluded_from_series(self):
        store = make_history_store(
            [
                ("a", "d1", [(0.0, 3600.0, 9.0)]),
                ("b", "d1", [(0.0, 3600.0, 1.0), (30 * DAY, 3600.0, 1.0)]),
            ]
        )
        series = distance_vs_visits("d1", store.histories_for_entity("d1"))
        assert series.n_users == 1

    def test_compare_entities_renders(self):
        store = make_history_store(
            [
                ("a", "d1", [(0.0, 3600.0, 1.0), (30 * DAY, 3600.0, 1.0)]),
                ("b", "d2", [(0.0, 3600.0, 2.0)]),
            ]
        )
        viz = compare_entities(
            {
                "d1": store.histories_for_entity("d1"),
                "d2": store.histories_for_entity("d2"),
            }
        )
        rendered = viz.render()
        assert "d1" in rendered and "d2" in rendered
