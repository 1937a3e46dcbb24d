"""Golden-digest regression pins for two canonical epoch scenarios.

Each pin is the sha256 of ``EpochsOutcome.reports_digest()`` for a fully
deterministic pipeline run.  Monolithic and sharded configurations must
both hit the *same* pin — so a drift in either the core math or the
scale layer's merge order shows up as a one-line failure here before the
(slower) differential matrix localizes it.

If a pin moves because of an *intentional* semantic change, re-derive it
with the scenario helpers below and update BOTH constants in one commit,
saying why in the commit message.
"""

import hashlib

import pytest

from repro.faults import DropFault, DuplicateFault, FaultPlan, Window
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.uploads import RetransmitPolicy
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

HORIZON_DAYS = 28.0
HORIZON = HORIZON_DAYS * DAY

GOLDEN_CLEAN = "efb4ba73cdc6df663515b14835aa4a47fa3a4d6dcbbc7f4e524103a469db0791"
GOLDEN_CHAOS = "deff64580df2c0021245f7a6aba4ffe25517a7738ef92d8e7240228b10a7d127"

CHAOS_PLAN = FaultPlan(
    seed=17,
    drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.05),),
    duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), 0.10),),
)
CHAOS_RETRY = RetransmitPolicy(max_attempts=2, min_interval=6 * HOUR)


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def digest_of(world, n_shards, plan=None, retransmit=None):
    town, result, classifier = world
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=29, retransmit=retransmit)
    outcome = run_epochs(
        town,
        result,
        config,
        n_epochs=3,
        classifier=classifier,
        max_users=8,
        fault_plan=plan,
        n_shards=n_shards,
    )
    return hashlib.sha256(outcome.reports_digest().encode()).hexdigest()


@pytest.mark.parametrize("n_shards", [1, 8])
def test_clean_scenario_pins(world, n_shards):
    assert digest_of(world, n_shards) == GOLDEN_CLEAN


@pytest.mark.parametrize("n_shards", [1, 8])
def test_chaos_scenario_pins(world, n_shards):
    assert (
        digest_of(world, n_shards, plan=CHAOS_PLAN, retransmit=CHAOS_RETRY)
        == GOLDEN_CHAOS
    )
