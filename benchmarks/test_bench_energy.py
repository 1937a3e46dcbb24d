"""A6 — energy ablation: duty-cycled vs continuous location sensing.

Section 5's claim: accelerometer-gated duty cycling makes persistent
location monitoring affordable.  The bench runs the full sensing pipeline
(trace -> stay points -> entity resolution) under each policy and compares
energy against visit recall.
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED

from repro.sensing.energy import evaluate_policy
from repro.sensing.policy import continuous_policy, duty_cycled_policy
from repro.util.clock import DAY, HOUR


def test_bench_energy_vs_recall(benchmark, simulated_world):
    town, result, horizon_days = simulated_world
    horizon = horizon_days * DAY
    policies = [
        continuous_policy(interval=60.0),
        continuous_policy(interval=300.0),
        duty_cycled_policy(stationary_interval=1 * HOUR),
        duty_cycled_policy(stationary_interval=4 * HOUR),
    ]
    labels = ["continuous 60s", "continuous 300s", "duty-cycled 1h", "duty-cycled 4h"]

    def sweep():
        return [
            evaluate_policy(town, result, horizon, policy, seed=BENCH_SEED, max_users=25)
            for policy in policies
        ]

    evaluations = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for label, evaluation in zip(labels, evaluations):
        rows.append(
            [
                label,
                f"{evaluation.n_gps_fixes:,}",
                f"{evaluation.energy_per_user_day_joules:,.0f}",
                f"{evaluation.recall:.2f}",
            ]
        )
    emit(comparison_table(
        "A6: sensing energy vs visit recall",
        ["policy", "GPS fixes", "J / user / day", "visit recall"],
        rows,
    ))

    continuous = evaluations[0]
    duty = evaluations[2]
    # Order-of-magnitude energy cut at near-equal recall (Section 5).
    assert duty.energy_joules < 0.15 * continuous.energy_joules
    assert duty.recall >= continuous.recall - 0.05
    assert duty.recall > 0.7
