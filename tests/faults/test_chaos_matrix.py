"""The fault matrix: the epochs pipeline under scripted chaos.

Exercises `run_epochs` across a grid of drop / outage / crash / skew /
duplication plans and pins the acceptance criteria of the robustness
work: faulted runs complete without exceptions, the nonce-dedup table
suppresses every duplicate, bounded retransmission strictly improves
delivery under loss, and the whole thing is byte-for-byte deterministic
per fault-plan seed.  `make chaos` runs this module (with the rest of
``tests/faults``) as the CI chaos job.
"""

import pytest

from repro.faults import (
    ClientCrash,
    ClockSkew,
    DropFault,
    DuplicateFault,
    FaultPlan,
    IssuerOutage,
    ServerOutage,
    Window,
    lossy_plan,
)
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.uploads import RetransmitPolicy
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

HORIZON_DAYS = 60.0
HORIZON = HORIZON_DAYS * DAY
N_EPOCHS = 3
EPOCH = HORIZON / N_EPOCHS
MAX_USERS = 8


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def run(world, plan, retransmit=None, seed=29):
    town, result, classifier = world
    config = PipelineConfig(
        horizon_days=HORIZON_DAYS, seed=seed, retransmit=retransmit
    )
    return run_epochs(
        town,
        result,
        config,
        n_epochs=N_EPOCHS,
        classifier=classifier,
        max_users=MAX_USERS,
        fault_plan=plan,
    )


def total(outcome, field):
    return sum(getattr(report, field) for report in outcome.reports)


MATRIX = [
    pytest.param(lossy_plan(0.2, HORIZON + 30 * DAY, seed=1), id="drop-20"),
    pytest.param(lossy_plan(0.5, HORIZON + 30 * DAY, seed=2), id="drop-50"),
    pytest.param(
        FaultPlan(seed=3, server_outages=(ServerOutage(Window(EPOCH, 2 * EPOCH + 3 * DAY)),)),
        id="server-outage",
    ),
    pytest.param(
        FaultPlan(seed=4, issuer_outages=(IssuerOutage(Window(EPOCH, 2.5 * EPOCH)),)),
        id="issuer-outage",
    ),
    pytest.param(
        FaultPlan(seed=5, crashes=(ClientCrash(1.5 * EPOCH),)), id="crash-all"
    ),
    pytest.param(
        FaultPlan(
            seed=6,
            duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), rate=1.0),),
        ),
        id="duplicate-all",
    ),
    pytest.param(
        FaultPlan(seed=7, skews=(ClockSkew(offset=2 * HOUR),)), id="skew-2h"
    ),
    pytest.param(
        FaultPlan(
            seed=8,
            drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.2),),
            server_outages=(ServerOutage(Window(EPOCH, 2 * EPOCH)),),
            crashes=(ClientCrash(1.5 * EPOCH),),
            skews=(ClockSkew(offset=-HOUR, device_id="user-0001"),),
        ),
        id="combined",
    ),
]


class TestFaultMatrix:
    @pytest.mark.parametrize("plan", MATRIX)
    def test_run_completes_with_consistent_counters(self, world, plan):
        outcome = run(world, plan, retransmit=RetransmitPolicy(max_attempts=2))
        server, injector = outcome.server, outcome.injector
        assert outcome.n_epochs == N_EPOCHS
        # The dedup invariant: every accepted envelope has a fresh nonce,
        # so duplicates can never inflate the stores.
        assert server.accepted_envelopes == server.n_unique_nonces
        # Per-epoch deltas re-sum to the server/network totals.
        assert total(outcome, "rejected_envelopes") == server.rejected_envelopes
        assert total(outcome, "duplicates_suppressed") == server.duplicates_suppressed
        assert server.dropped_by_outage == injector.envelopes_lost_to_outage

    def test_network_duplicates_all_suppressed(self, world):
        """Rate-1.0 network duplication: every submission is delivered
        twice, and the server accepts exactly one copy of each."""
        plan = FaultPlan(
            seed=6,
            duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), rate=1.0),),
        )
        outcome = run(world, plan)
        server = outcome.server
        assert server.duplicates_suppressed > 0
        assert server.duplicates_suppressed == outcome.injector.messages_duplicated
        assert server.accepted_envelopes == server.n_unique_nonces

    def test_server_outage_defers_maintenance(self, world):
        plan = FaultPlan(
            seed=3,
            server_outages=(ServerOutage(Window(EPOCH, 2 * EPOCH + 3 * DAY)),),
        )
        outcome = run(world, plan)
        deferred = [r for r in outcome.reports if r.server_deferred]
        assert deferred
        for report in deferred:
            assert report.maintenance is None
            assert report.new_records == 0
        # The final epoch ingests the backlog the mix kept buffering.
        assert not outcome.reports[-1].server_deferred
        assert outcome.reports[-1].total_records > 0

    def test_issuer_outage_defers_envelopes_without_losing_them(self, world):
        plan = FaultPlan(
            seed=4, issuer_outages=(IssuerOutage(Window(0.0, HORIZON + 30 * DAY)),)
        )
        outcome = run(world, plan)
        # With the issuer down for the whole run (beyond every backoff),
        # nothing is ever submitted — but nothing is dropped either: all
        # records stay queued on-device awaiting tokens.
        assert outcome.server.n_records == 0
        assert sum(c.stats.issuer_failures for c in outcome.clients.values()) > 0
        assert sum(c.n_pending for c in outcome.clients.values()) > 0

    def test_crash_restore_happens_and_run_completes(self, world):
        plan = FaultPlan(seed=5, crashes=(ClientCrash(1.5 * EPOCH),))
        outcome = run(world, plan)
        assert outcome.injector.crashes_triggered == MAX_USERS
        assert total(outcome, "crash_restores") == MAX_USERS
        assert outcome.server.n_records > 0


class TestAcceptanceScenario:
    """ISSUE acceptance: 20% drop + one full-epoch server outage + one
    mid-horizon client crash–restore, with retransmission enabled."""

    PLAN = FaultPlan(
        seed=42,
        drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.2),),
        server_outages=(ServerOutage(Window(EPOCH, 2 * EPOCH)),),
        crashes=(ClientCrash(1.5 * EPOCH),),
    )
    POLICY = RetransmitPolicy(max_attempts=2, min_interval=6 * HOUR)

    def test_completes_and_suppresses_all_duplicates(self, world):
        outcome = run(world, self.PLAN, retransmit=self.POLICY)
        server = outcome.server
        assert outcome.n_epochs == N_EPOCHS
        assert total(outcome, "crash_restores") == MAX_USERS
        assert total(outcome, "retransmissions") > 0
        # No retransmitted copy ever lands twice:
        assert server.accepted_envelopes == server.n_unique_nonces
        assert server.n_records > 0

    def test_retransmission_strictly_improves_delivery(self, world):
        with_retry = run(world, self.PLAN, retransmit=self.POLICY)
        without = run(world, self.PLAN, retransmit=None)
        records_with = with_retry.server.n_records
        records_without = without.server.n_records
        assert records_with > records_without


class TestDeterminismGuard:
    def test_same_plan_seed_byte_identical_reports(self, world):
        plan = FaultPlan(
            seed=13,
            drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.3),),
            server_outages=(ServerOutage(Window(EPOCH, 1.2 * EPOCH)),),
            crashes=(ClientCrash(2.5 * EPOCH),),
            skews=(ClockSkew(offset=HOUR),),
        )
        policy = RetransmitPolicy(max_attempts=2, min_interval=6 * HOUR)
        first = run(world, plan, retransmit=policy)
        second = run(world, plan, retransmit=policy)
        assert first.reports_digest() == second.reports_digest()
        assert first.server.n_records == (
            second.server.n_records
        )

    def test_different_plan_seed_diverges_under_partial_loss(self, world):
        first = run(world, lossy_plan(0.5, HORIZON + 30 * DAY, seed=100))
        second = run(world, lossy_plan(0.5, HORIZON + 30 * DAY, seed=101))
        assert first.injector.messages_dropped != second.injector.messages_dropped or (
            first.reports_digest() != second.reports_digest()
        )
