"""Tests for the evaluation diagnostics and multi-epoch operation."""


import pytest

from repro.orchestration.epochs import run_epochs
from repro.orchestration.evaluation import (
    abstention_calibration,
    accuracy_by_kind,
    coverage_diagnostics,
)
from repro.orchestration.pipeline import PipelineConfig, run_full_pipeline, train_classifier
from repro.util.clock import DAY
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town
from repro.durability.snapshot import capture_state
from tests.integration.test_full_pipeline import pipeline_digest

#: :func:`pipeline_digest` of the two runs in
#: ``TestWearableOptIn.test_wearables_improve_pipeline_accuracy``.
GOLDEN_PLAIN = "5f95b513a70dc936dcc595b9baf611ed4ebaf509305fe0038582a0124106972c"
GOLDEN_WEARABLE = "dd6b380e40d21e1ad4ad8f35358fbc6234a6af2cca93f46bdce407e2bcbe832e"


@pytest.fixture(scope="module")
def deployment():
    town = build_town(TownConfig(n_users=60), seed=17)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=150), seed=17
    ).run()
    config = PipelineConfig(horizon_days=150.0, seed=17)
    outcome = run_full_pipeline(town, result, config)
    return town, result, config, outcome


class TestAccuracyByKind:
    def test_covers_active_kinds(self, deployment):
        town, result, _, outcome = deployment
        report = accuracy_by_kind(town, result, outcome)
        assert "restaurant" in report

    def test_restaurants_infer_better_than_rare_kinds(self, deployment):
        """More interactions per pair -> better inference; restaurants have
        the densest signal."""
        town, result, _, outcome = deployment
        report = accuracy_by_kind(town, result, outcome)
        restaurant = report["restaurant"]
        assert restaurant.n_predictions > 20
        assert restaurant.mae < 1.5
        # Coverage should also be highest for the dense kind.
        for kind, accuracy in report.items():
            if kind != "restaurant" and accuracy.n_predictions + accuracy.n_abstentions > 10:
                assert restaurant.coverage >= accuracy.coverage - 0.1, kind

    def test_counts_consistent_with_outcome(self, deployment):
        town, result, _, outcome = deployment
        report = accuracy_by_kind(town, result, outcome)
        total_predictions = sum(a.n_predictions for a in report.values())
        assert total_predictions <= outcome.n_inferences


class TestCalibration:
    def test_bins_cover_predictions(self, deployment):
        _, result, _, outcome = deployment
        bins = abstention_calibration(result, outcome)
        assert bins
        assert sum(b.n for b in bins) > 50

    def test_claimed_error_tracks_realized(self, deployment):
        """Calibration: realized error within 2x of claimed in the populated
        bins (the classifier's confidence is honest to a factor, not a lie)."""
        _, result, _, outcome = deployment
        bins = abstention_calibration(result, outcome)
        for calibration_bin in bins:
            if calibration_bin.n < 20:
                continue
            assert calibration_bin.mean_realized < 2.5 * calibration_bin.mean_claimed + 0.2

    def test_bin_edges_respected(self, deployment):
        _, result, _, outcome = deployment
        bins = abstention_calibration(result, outcome)
        for calibration_bin in bins:
            assert calibration_bin.claimed_low <= calibration_bin.mean_claimed
            assert calibration_bin.mean_claimed <= calibration_bin.claimed_high


class TestCoverageDiagnostics:
    def test_rescued_entities(self, deployment):
        """Implicit inference must reach entities with zero reviews."""
        town, _, _, outcome = deployment
        diagnostics = coverage_diagnostics(town, outcome)
        assert diagnostics.n_rescued_entities > 10
        assert (
            diagnostics.n_entities_with_opinions_after
            > diagnostics.n_entities_with_opinions_before
        )

    def test_opinions_spread_more_evenly(self, deployment):
        """The opinion Gini across entities should fall: inference fills the
        long tail instead of piling onto already-reviewed entities."""
        town, _, _, outcome = deployment
        diagnostics = coverage_diagnostics(town, outcome)
        assert diagnostics.gini_after < diagnostics.gini_before


class TestEpochs:
    @pytest.fixture(scope="class")
    def epoch_world(self):
        town = build_town(TownConfig(n_users=35), seed=18)
        result = BehaviorSimulator(
            town.users, town.entities, BehaviorConfig(duration_days=100), seed=18
        ).run()
        config = PipelineConfig(horizon_days=100.0, seed=18)
        return town, result, config

    def test_records_grow_monotonically(self, epoch_world):
        town, result, config = epoch_world
        outcome = run_epochs(town, result, config, n_epochs=4)
        totals = [r.total_records for r in outcome.reports]
        assert totals == sorted(totals)
        assert all(r.new_records >= 0 for r in outcome.reports)

    def test_no_duplicate_uploads_across_epochs(self, epoch_world):
        """The decisive property: epoch operation converges to exactly the
        same store as a single-shot run over the full horizon."""
        town, result, config = epoch_world
        epochs = run_epochs(town, result, config, n_epochs=4)
        single = run_full_pipeline(town, result, config)
        assert (
            epochs.server.n_records
            == single.server.n_records
        )
        assert epochs.server.n_opinions == single.server.n_opinions

    def test_opinion_latest_wins(self, epoch_world):
        """Opinions are keyed per history: re-inference updates, never
        duplicates."""
        town, result, config = epoch_world
        outcome = run_epochs(town, result, config, n_epochs=4)
        assert outcome.server.n_opinions == len(capture_state(outcome.server)["opinions"])

    def test_requires_positive_epochs(self, epoch_world):
        town, result, config = epoch_world
        with pytest.raises(ValueError):
            run_epochs(town, result, config, n_epochs=0)

    def test_epoch_reports_timeline(self, epoch_world):
        town, result, config = epoch_world
        outcome = run_epochs(town, result, config, n_epochs=4)
        times = [r.end_time for r in outcome.reports]
        assert times == sorted(times)
        assert outcome.n_epochs == 4


@pytest.fixture(scope="module")
def wearable_world():
    town = build_town(TownConfig(n_users=45), seed=19)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=120), seed=19
    ).run()
    return town, result


class TestWearableOptIn:
    def test_wearables_improve_pipeline_accuracy(self, wearable_world):
        """PipelineConfig(use_wearables=True) threads the affect channel
        through deployment and lowers inference error."""
        town, result = wearable_world
        plain = run_full_pipeline(
            town, result, PipelineConfig(horizon_days=120.0, seed=19)
        )
        wearable = run_full_pipeline(
            town, result, PipelineConfig(horizon_days=120.0, seed=19, use_wearables=True)
        )
        assert wearable.inference_errors and plain.inference_errors
        assert wearable.mean_absolute_error < plain.mean_absolute_error
        assert pipeline_digest(plain) == GOLDEN_PLAIN
        assert pipeline_digest(wearable) == GOLDEN_WEARABLE

    def test_epochs_feed_the_affect_channel(self, wearable_world):
        """run_epochs feeds use_wearables to training and to every epoch's
        observation: five deployed clients infer differently from a plain
        run's, and from a plain run under the affect-trained classifier."""
        town, result = wearable_world
        plain_config = PipelineConfig(horizon_days=120.0, seed=19)
        wearable_config = PipelineConfig(horizon_days=120.0, seed=19, use_wearables=True)

        def audits(config, classifier=None):
            outcome = run_epochs(
                town, result, config, n_epochs=2, classifier=classifier, max_users=5
            )
            return {
                user_id: client.transparency.audit()
                for user_id, client in outcome.clients.items()
            }

        wearable = audits(wearable_config)
        assert any(wearable.values())
        assert wearable != audits(plain_config)
        affect_trained = train_classifier(
            town, result, 120 * DAY, seed=19, use_wearables=True
        )
        assert wearable == audits(wearable_config, affect_trained)
        assert wearable != audits(plain_config, affect_trained)
