"""Golden pins for the aggregate telemetry export of canonical scenarios.

The aggregate-scope export (``Telemetry.digest(scope=AGGREGATE)``) is the
observability twin of the epoch-report pins in
``tests/scale/test_golden_digest.py``: a pure function of *what happened*
in the deployment, contractually byte-identical for every shard and
worker count.  The grid below is the acceptance matrix — shards
{1, 4, 8} × workers {1, 4} — plus the default deployment (one shard, no
workers) that sources the pin.

If a pin moves because of an *intentional* change to the metric catalog
or instrumentation points, re-derive it with the helpers below and
update the constant in the same commit, saying why.
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

# Re-derived when incremental maintenance landed: the aggregate export
# gained the dirty-set/cache-hit metric family (rsp.maintenance.dirty_*,
# cache_hits/cache_skips, redirtied, dirty_set histogram), all computed
# from tracked sets so the digest stays invariant across deployments,
# worker counts, and incremental vs full recompute.
GOLDEN_TELEMETRY_CLEAN = (
    "9c7ad644656c302f0c53a880e3d97e1e45ff38130f73197eac313d77a1ac3240"
)
GOLDEN_TELEMETRY_CHAOS = (
    "c6892df196efb1c5f58f7af8dfa49dcdd867647161785fc844afb0949430470e"
)

CHAOS_PLAN = FaultPlan(
    seed=17,
    drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.05),),
    duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), 0.10),),
)
CHAOS_RETRY = RetransmitPolicy(max_attempts=2, min_interval=6 * HOUR)

#: The acceptance grid: the default deployment plus every sharded/pooled
#: combination.
DEPLOYMENTS = [(1, 0), (1, 1), (1, 4), (4, 1), (4, 4), (8, 1), (8, 4)]


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def telemetry_of(world, n_shards, workers, plan=None, retransmit=None):
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
        workers=workers,
    )
    return outcome.telemetry


@pytest.mark.parametrize("n_shards,workers", DEPLOYMENTS)
def test_clean_telemetry_pins(world, n_shards, workers):
    telemetry = telemetry_of(world, n_shards, workers)
    assert telemetry.digest(scope=AGGREGATE) == GOLDEN_TELEMETRY_CLEAN


@pytest.mark.parametrize("n_shards,workers", [(1, 0), (8, 2)])
def test_chaos_telemetry_pins(world, n_shards, workers):
    telemetry = telemetry_of(
        world, n_shards, workers, plan=CHAOS_PLAN, retransmit=CHAOS_RETRY
    )
    assert telemetry.digest(scope=AGGREGATE) == GOLDEN_TELEMETRY_CHAOS


def test_export_json_itself_is_byte_identical(world):
    """The pin covers the digest; this covers the literal export bytes."""
    one = telemetry_of(world, 1, 0).export_json(scope=AGGREGATE)
    sharded = telemetry_of(world, 8, 4).export_json(scope=AGGREGATE)
    assert one == sharded


def test_deployment_scope_is_allowed_to_differ(world):
    """Per-shard metrics carry the shard count — and only outside the
    invariant (aggregate) scope."""
    one = telemetry_of(world, 1, 0)
    four = telemetry_of(world, 4, 0)

    def shards_seen(telemetry):
        return {
            row["labels"]["shard"]
            for row in telemetry.export()["metrics"]
            if row["name"] == "rsp.shard.batch"
        }

    assert shards_seen(one) == {"0"}
    assert shards_seen(four) == {"0", "1", "2", "3"}
    assert one.digest() != four.digest()  # full export differs...
    assert one.digest(scope=AGGREGATE) == four.digest(scope=AGGREGATE)
