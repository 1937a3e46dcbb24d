"""One catalog directory per deployment.

``run_epochs`` derives the entity map, the resolver and the choice sets
from the static catalog once, and every client of the run, crash-restored
ones included, shares that one directory.
"""

from repro.core import features
from repro.core.classifier import OpinionClassifier, synthetic_training_pairs
from repro.faults import ClientCrash, FaultPlan
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig
from repro.util.clock import DAY
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town


def test_every_client_shares_one_directory(monkeypatch):
    town = build_town(TownConfig(n_users=16), seed=5)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=12), seed=5
    ).run()
    classifier = OpinionClassifier().fit(*synthetic_training_pairs(60, seed=0))

    built = 0
    make_choice_set = features.ChoiceSet

    def counting_choice_set(**fields):
        nonlocal built
        built += 1
        return make_choice_set(**fields)

    monkeypatch.setattr(features, "ChoiceSet", counting_choice_set)
    plan = FaultPlan(seed=1, crashes=(ClientCrash(5 * DAY),))
    outcome = run_epochs(
        town,
        result,
        PipelineConfig(horizon_days=12.0, seed=5),
        n_epochs=4,
        classifier=classifier,
        fault_plan=plan,
    )

    assert sum(report.crash_restores for report in outcome.reports) == len(town.users)
    directories = {id(client.directory) for client in outcome.clients.values()}
    assert len(directories) == 1
    directory = next(iter(outcome.clients.values())).directory
    assert all(client.resolver is directory.resolver for client in outcome.clients.values())
    # Each build is memoised under its entity, so one build per key means
    # no entity's choice set was built twice.
    assert 0 < built == len(directory._choice_sets) <= len(town.entities)
