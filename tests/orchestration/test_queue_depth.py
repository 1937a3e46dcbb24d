"""``run_epochs(queue_depth=)``: bounded intake in front of the server.

``run_epochs`` is the bounded queue's production caller.  These
tests pin what the knob does on a small world: a queue deep enough never
sheds, so the run is report-for-report the unbounded one; a shallow
queue sheds deterministically before intake, and every envelope it
admits is classified exactly once.  Client retransmission does not
recover what it sheds.
"""

import pytest

from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.uploads import RetransmitPolicy
from repro.util.clock import DAY
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

SEED = 29
HORIZON_DAYS = 28.0
N_EPOCHS = 3
MAX_USERS = 8


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=SEED)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=SEED
    ).run()
    classifier = train_classifier(town, result, HORIZON_DAYS * DAY, seed=SEED)
    return town, result, classifier


def run(world, queue_depth, retransmit=None):
    town, result, classifier = world
    return run_epochs(
        town,
        result,
        PipelineConfig(horizon_days=HORIZON_DAYS, seed=SEED, retransmit=retransmit),
        n_epochs=N_EPOCHS,
        classifier=classifier,
        max_users=MAX_USERS,
        queue_depth=queue_depth,
    )


@pytest.fixture(scope="module")
def unbounded(world):
    return run(world, None)


def test_deep_queue_changes_no_report(world, unbounded):
    deep = run(world, 10_000)
    assert deep.telemetry.total("rsp.ingest.shed") == 0
    assert deep.reports_digest() == unbounded.reports_digest()


def test_shallow_queue_sheds_before_intake(world, unbounded):
    shallow = run(world, 5)
    admitted = shallow.telemetry.total("rsp.ingest.admitted")
    shed = shallow.telemetry.total("rsp.ingest.shed")
    assert (admitted, shed) == (15, 37)
    # Every delivery the unbounded run accepts is offered here, and is
    # either admitted or shed.
    assert admitted + shed == unbounded.server.accepted_envelopes
    # Each admitted envelope is classified exactly once by the server.
    server = shallow.server
    assert admitted == (
        server.accepted_envelopes
        + server.rejected_envelopes
        + server.duplicates_suppressed
        + server.dropped_by_outage
    )


def stored_interactions(server) -> int:
    return sum(
        history.n_interactions
        for shard in server.shards
        for history in shard.store.all_histories()
    )


def test_retransmission_does_not_recover_shed_records(world, unbounded):
    """Each epoch's release is offered as one burst and drained at once,
    so a retransmitted copy lands in the same burst as its original and
    is shed with it once the queue is full."""
    retransmit = RetransmitPolicy()
    unbounded_retransmit = run(world, None, retransmit)
    shallow = run(world, 20, retransmit)
    admitted = shallow.telemetry.total("rsp.ingest.admitted")
    shed = shallow.telemetry.total("rsp.ingest.shed")
    server = shallow.server
    assert (admitted, shed) == (48, 39)
    assert (server.accepted_envelopes, server.duplicates_suppressed) == (45, 3)
    assert unbounded_retransmit.server.accepted_envelopes == 52
    # Four of the unbounded run's 44 interactions stay lost.
    assert stored_interactions(unbounded_retransmit.server) == 44
    assert stored_interactions(unbounded.server) == 44
    assert stored_interactions(server) == 40
