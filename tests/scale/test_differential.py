"""The differential matrix: sharded vs monolithic, end to end.

Every cell runs the full epochs pipeline — simulated town, on-device
clients, mixnet, token issuance, maintenance — twice: once against the
default one-shard :class:`RSPServer` and once with more shards, and
asserts *exact* equality of

* the per-epoch report digest (``EpochsOutcome.reports_digest()``),
* every entity's opinion summary (all floats, bit for bit),
* the set of fraud verdicts (which histories were flagged, and why),
* the AGGREGATE telemetry digest.

The chaos cells repeat the comparison under a fault plan with drops,
duplicates and retransmission, where intake interleaving is at its
nastiest.  This suite is the proof obligation of the scale package:
sharding is pure implementation detail.
"""

import pytest

from repro.faults import DropFault, DuplicateFault, FaultPlan, Window
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.uploads import RetransmitPolicy
from repro.telemetry import AGGREGATE
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


def run(world, seed, n_shards=1, plan=None, retransmit=None):
    town, result, classifier = world
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=seed, retransmit=retransmit)
    return run_epochs(
        town,
        result,
        config,
        n_epochs=N_EPOCHS,
        classifier=classifier,
        max_users=MAX_USERS,
        fault_plan=plan,
        n_shards=n_shards,
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
def baselines(world):
    """One-shard reference runs, one per seed, shared across the matrix."""
    return {seed: run(world, seed) for seed in (29, 31)}


class TestCleanMatrix:
    @pytest.mark.parametrize("seed", [29, 31])
    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_sharded_run_is_indistinguishable(self, world, baselines, seed, n_shards):
        outcome = run(world, seed, n_shards=n_shards)
        assert_equivalent(baselines[seed], outcome)

    def test_sanity_different_seeds_differ(self, baselines):
        """Guards the matrix against vacuous equality (e.g. empty runs)."""
        assert baselines[29].reports_digest() != baselines[31].reports_digest()
        assert baselines[29].server.n_records > 0
        assert verdict_set(baselines[29]) or baselines[29].server.n_histories > 0


class TestChaosMatrix:
    @pytest.fixture(scope="class")
    def chaos_baseline(self, world):
        return run(world, 29, plan=CHAOS, retransmit=RETRY)

    @pytest.mark.parametrize("n_shards", [2, 8])
    def test_chaos_run_is_indistinguishable(self, world, chaos_baseline, n_shards):
        outcome = run(world, 29, n_shards=n_shards, plan=CHAOS, retransmit=RETRY)
        assert_equivalent(chaos_baseline, outcome)
        # Same fault stream, same suppression behaviour — per shard.
        assert (
            outcome.server.duplicates_suppressed
            == chaos_baseline.server.duplicates_suppressed
        )
        assert outcome.server.accepted_envelopes == outcome.server.n_unique_nonces

    def test_chaos_actually_bites(self, chaos_baseline):
        assert chaos_baseline.injector.messages_dropped > 0
        assert chaos_baseline.server.duplicates_suppressed > 0
