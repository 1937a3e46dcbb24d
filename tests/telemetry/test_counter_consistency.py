"""Integration: EpochReport robustness fields ≡ telemetry counters ≡ legacy.

``run_epochs`` derives its per-epoch robustness deltas *from* the shared
telemetry registry, so three views of the same events must agree exactly,
under chaos, for both deployments:

1. the summed ``EpochReport`` fields,
2. the telemetry counter totals, and
3. the legacy hand-threaded counters on the server/network/injector/
   clients (which remain the ground truth the derivation is pinned to).
"""

import pytest

from repro.faults import (
    ClientCrash,
    DropFault,
    DuplicateFault,
    FaultPlan,
    ServerOutage,
    Window,
)
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.uploads import RetransmitPolicy
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

HORIZON_DAYS = 28.0
HORIZON = HORIZON_DAYS * DAY
N_EPOCHS = 3
EPOCH = HORIZON / N_EPOCHS

#: Drops + duplicates + a mid-run outage + a crash: every counter the
#: reports derive is exercised at least once.
CHAOS_PLAN = FaultPlan(
    seed=23,
    drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.15),),
    duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), 0.20),),
    server_outages=(ServerOutage(Window(1.2 * EPOCH, 1.8 * EPOCH)),),
    crashes=(ClientCrash(1.5 * EPOCH),),
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


@pytest.fixture(scope="module", params=[1, 4], ids=["monolith", "sharded"])
def outcome(request, world):
    town, result, classifier = world
    n_shards = request.param
    config = PipelineConfig(horizon_days=HORIZON_DAYS, seed=29, retransmit=RETRY)
    return run_epochs(
        town,
        result,
        config,
        n_epochs=N_EPOCHS,
        classifier=classifier,
        max_users=8,
        fault_plan=CHAOS_PLAN,
        n_shards=n_shards,
    )


def summed(outcome, field):
    return sum(getattr(report, field) for report in outcome.reports)


class TestCounterConsistency:
    def test_chaos_actually_exercised_every_counter(self, outcome):
        assert summed(outcome, "dropped_messages") > 0
        assert summed(outcome, "duplicates_suppressed") > 0
        assert summed(outcome, "retransmissions") > 0
        assert any(r.server_deferred for r in outcome.reports)

    def test_rejected_envelopes(self, outcome):
        telemetry, server = outcome.telemetry, outcome.server
        assert summed(outcome, "rejected_envelopes") == server.rejected_envelopes
        assert telemetry.total("rsp.envelopes.rejected") == server.rejected_envelopes

    def test_duplicates_suppressed(self, outcome):
        telemetry, server = outcome.telemetry, outcome.server
        assert summed(outcome, "duplicates_suppressed") == server.duplicates_suppressed
        assert telemetry.total("rsp.envelopes.duplicate") == (
            server.duplicates_suppressed
        )

    def test_dropped_messages(self, outcome):
        telemetry = outcome.telemetry
        legacy = (
            outcome.injector.messages_dropped + outcome.server.dropped_by_outage
        )
        assert summed(outcome, "dropped_messages") == legacy
        assert telemetry.total("mix.dropped") + telemetry.total(
            "rsp.envelopes.outage_dropped"
        ) == legacy
        assert telemetry.total("rsp.envelopes.outage_dropped") == (
            outcome.injector.envelopes_lost_to_outage
        )

    def test_retransmissions(self, outcome):
        telemetry = outcome.telemetry
        legacy = sum(c.stats.retransmissions for c in outcome.clients.values())
        assert summed(outcome, "retransmissions") == legacy
        assert telemetry.total("client.retransmissions") == legacy

    def test_accepted_envelopes_and_dedup_invariant(self, outcome):
        telemetry, server = outcome.telemetry, outcome.server
        assert telemetry.total("rsp.envelopes.accepted") == server.accepted_envelopes
        assert server.accepted_envelopes == server.n_unique_nonces

    def test_injected_fault_counts_match_injector(self, outcome):
        telemetry, injector = outcome.telemetry, outcome.injector
        metric = "faults.injected"
        assert telemetry.value(metric, kind="drop") == injector.messages_dropped
        assert telemetry.value(metric, kind="duplicate") == (
            injector.messages_duplicated
        )
        assert telemetry.value(metric, kind="crash") == injector.crashes_triggered

    def test_epoch_spans_cover_the_horizon(self, outcome):
        spans = outcome.telemetry.spans.spans("epoch")
        assert len(spans) == N_EPOCHS
        assert spans[0].start == 0.0
        assert spans[-1].end == HORIZON
