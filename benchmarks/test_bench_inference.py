"""A1 — inference ablation: effort features vs naive repeat counting,
and the abstention coverage/accuracy trade-off.

Section 4.1's design claims, quantified: (1) a classifier using effort /
exploration / choice-set features beats the naive "more visits = better"
rule; (2) abstention lets the RSP trade coverage for accuracy — the
footnote's requirement that the classifier "declare it infeasible to
accurately gauge the user's opinion" rather than guess.
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED

import numpy as np

from repro.client.app import infer_home
from repro.core.classifier import ClassifierConfig, OpinionClassifier, RepeatCountBaseline
from repro.core.features import extract_all_features
from repro.sensing.policy import duty_cycled_policy
from repro.sensing.resolution import EntityResolver
from repro.sensing.sensors import generate_trace
from repro.orchestration.pipeline import collect_training_data
from repro.util.clock import DAY


def build_eval_set(town, result, horizon, seed, max_users=60):
    """(features, truth) for evaluation users with settled ground truth."""
    catalog = {entity.entity_id: entity for entity in town.entities}
    resolver = EntityResolver(town.entities)
    rows = []
    for user in town.users[:max_users]:
        trace = generate_trace(user.user_id, town, result, horizon, duty_cycled_policy(), seed=seed)
        interactions = resolver.resolve(trace)
        if not interactions:
            continue
        home = infer_home(trace)
        for entity_id, features in extract_all_features(interactions, catalog, home).items():
            truth = result.opinions.get((user.user_id, entity_id))
            if truth is not None:
                rows.append((features, truth.opinion))
    return rows


def test_bench_inference_vs_baseline(benchmark, simulated_world):
    town, result, horizon_days = simulated_world
    horizon = horizon_days * DAY
    train_features, train_ratings = collect_training_data(town, result, horizon, seed=BENCH_SEED)
    eval_rows = build_eval_set(town, result, horizon, seed=BENCH_SEED)

    def train_and_score():
        model = OpinionClassifier().fit(train_features, train_ratings)
        baseline = RepeatCountBaseline().fit(train_features, train_ratings)
        model_errors = []
        baseline_on_covered = []  # baseline scored on the SAME pairs the model covers
        baseline_errors = []
        n_abstained = 0
        for features, truth in eval_rows:
            baseline_error = abs(baseline.predict(features).rating - truth)
            baseline_errors.append(baseline_error)
            inferred = model.predict(features)
            if inferred.abstained:
                n_abstained += 1
            else:
                model_errors.append(abs(inferred.rating - truth))
                baseline_on_covered.append(baseline_error)
        return model, model_errors, baseline_on_covered, baseline_errors, n_abstained

    model, model_errors, baseline_on_covered, baseline_errors, n_abstained = (
        benchmark.pedantic(train_and_score, rounds=1, iterations=1)
    )

    mae_model = float(np.mean(model_errors))
    mae_baseline_covered = float(np.mean(baseline_on_covered))
    mae_baseline_all = float(np.mean(baseline_errors))
    emit(comparison_table(
        "A1: effort classifier vs repeat-count baseline",
        ["model", "pairs scored", "MAE (stars)"],
        [
            ["effort classifier (abstains on thin evidence)",
             len(model_errors), f"{mae_model:.2f}"],
            ["repeat-count baseline, same covered pairs",
             len(baseline_on_covered), f"{mae_baseline_covered:.2f}"],
            ["repeat-count baseline, all pairs",
             len(baseline_errors), f"{mae_baseline_all:.2f}"],
        ],
    ))
    weights = model.feature_weights()
    top = sorted(weights.items(), key=lambda kv: -abs(kv[1]))[:6]
    emit(comparison_table("Top feature weights", ["feature", "weight"],
                          [[name, f"{w:+.2f}"] for name, w in top]))

    assert len(eval_rows) > 200
    # Like-for-like: on the pairs the model judges inferrable, the effort
    # features beat the best count-only rule by a clear margin.
    assert mae_model < mae_baseline_covered - 0.02
    assert weights["mean_travel_km"] != 0.0


def test_bench_abstention_tradeoff(benchmark, simulated_world):
    town, result, horizon_days = simulated_world
    horizon = horizon_days * DAY
    train_features, train_ratings = collect_training_data(town, result, horizon, seed=BENCH_SEED)
    eval_rows = build_eval_set(town, result, horizon, seed=BENCH_SEED)

    # Sweep both abstention gates from strict to none: the evidence gate
    # (minimum interactions) and the calibrated-confidence gate.
    gates = ((5, 0.8), (3, 0.9), (2, 1.1), (2, 10.0), (1, 10.0))

    def sweep():
        curve = []
        for min_interactions, max_error in gates:
            model = OpinionClassifier(
                ClassifierConfig(
                    min_interactions=min_interactions, max_expected_error=max_error
                )
            ).fit(train_features, train_ratings)
            errors = []
            covered = 0
            for features, truth in eval_rows:
                inferred = model.predict(features)
                if inferred.abstained:
                    continue
                covered += 1
                errors.append(abs(inferred.rating - truth))
            coverage = covered / len(eval_rows)
            mae = float(np.mean(errors)) if errors else float("nan")
            curve.append(((min_interactions, max_error), coverage, mae))
        return curve

    curve = benchmark.pedantic(sweep, rounds=1, iterations=1)

    emit(comparison_table(
        "A1: abstention trade-off (stricter gates -> less coverage, better accuracy)",
        ["min interactions", "max expected error", "coverage", "MAE"],
        [[g[0], f"{g[1]:.1f}", f"{c:.2f}", f"{m:.2f}"] for g, c, m in curve],
    ))

    coverages = [c for _, c, _ in curve]
    assert coverages == sorted(coverages)  # looser gates, more coverage
    assert coverages[-1] > 0.9  # no gate -> near-total coverage
    strictest_mae = curve[0][2]
    loosest_mae = curve[-1][2]
    # Abstention buys accuracy: the gated model is clearly better than
    # predicting for everyone.
    assert strictest_mae < loosest_mae
