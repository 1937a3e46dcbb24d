"""A14 — the wearable affect channel: does emotion sensing help?

Section 3.1 floats, then scopes out, inferring opinions "by monitoring the
user's emotions when interacting with the entity" via wearables.  This
bench un-scopes it: the same classifier is trained and evaluated twice —
once on behavioural features only (the paper's chosen design), once with a
noisy wearable valence feature added — and the MAE/coverage deltas show
what the extra (and far more invasive) channel actually buys.
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED

import numpy as np

from repro.client.app import infer_home
from repro.core.classifier import OpinionClassifier
from repro.core.features import OpinionFeatures, extract_all_features
from repro.sensing.policy import duty_cycled_policy
from repro.sensing.resolution import EntityResolver
from repro.sensing.sensors import generate_trace
from repro.sensing.wearables import valence_feature
from repro.util.clock import DAY


def _strip_valence(features: OpinionFeatures) -> OpinionFeatures:
    values = {name: getattr(features, name) for name in OpinionFeatures.feature_names()}
    values["mean_valence"] = 0.0
    return OpinionFeatures(**values)


def build_rows(town, result, horizon, seed):
    """(features_with_emotion, truth, is_reviewer) rows for all users."""
    catalog = {entity.entity_id: entity for entity in town.entities}
    resolver = EntityResolver(town.entities)
    reviewers = {review.user_id for review in result.reviews}
    rows = []
    for user in town.users:
        trace = generate_trace(
            user.user_id, town, result, horizon, duty_cycled_policy(), seed=seed
        )
        interactions = resolver.resolve(trace)
        if not interactions:
            continue
        emotion = valence_feature(user.user_id, result, horizon, seed)
        home = infer_home(trace)
        for entity_id, features in extract_all_features(
            interactions, catalog, home, emotion=emotion
        ).items():
            truth = result.opinions.get((user.user_id, entity_id))
            if truth is not None:
                rows.append((features, truth.opinion, user.user_id in reviewers))
    return rows


def test_bench_wearable_ablation(benchmark, simulated_world):
    town, result, horizon_days = simulated_world
    horizon = horizon_days * DAY
    rows = build_rows(town, result, horizon, seed=BENCH_SEED)
    train = [(f, o) for f, o, is_reviewer in rows if is_reviewer]
    evaluate = [(f, o) for f, o, _ in rows]

    def train_and_score():
        results = {}
        for label, transform in (
            ("behavioural only", _strip_valence),
            ("+ wearable valence", lambda f: f),
        ):
            model = OpinionClassifier().fit(
                [transform(f) for f, _ in train], [min(5.0, round(o)) for _, o in train]
            )
            errors = []
            covered = 0
            for features, truth in evaluate:
                inferred = model.predict(transform(features))
                if inferred.abstained:
                    continue
                covered += 1
                errors.append(abs(inferred.rating - truth))
            results[label] = (
                float(np.mean(errors)),
                covered / len(evaluate),
                model.feature_weights().get("mean_valence", 0.0),
            )
        return results

    results = benchmark.pedantic(train_and_score, rounds=1, iterations=1)

    emit(comparison_table(
        "A14: wearable affect channel ablation",
        ["feature set", "MAE (stars)", "coverage", "valence weight"],
        [
            [label, f"{mae:.2f}", f"{coverage:.2f}", f"{weight:+.2f}"]
            for label, (mae, coverage, weight) in results.items()
        ],
    ))

    behavioural_mae = results["behavioural only"][0]
    wearable_mae = results["+ wearable valence"][0]
    valence_weight = results["+ wearable valence"][2]
    # Emotion is real signal: positive weight, measurably lower error.
    assert valence_weight > 0
    assert wearable_mae < behavioural_mae - 0.02
