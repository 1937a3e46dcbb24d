"""A15 — reminders vs implicit inference on identical sensing.

Section 3 considers prompting users to post and argues it is the weaker
strategy: it needs the same physical-world tracking just to know *when* to
prompt, it keeps the explicit-input bottleneck, and prompting has costs.
The bench gives the reminder strategy the exact detected-visit stream the
implicit pipeline used, sweeps prompt aggressiveness, and compares opinions
gained (and users annoyed into leaving) against implicit inference.
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED

from repro.core.reminders import ReminderPolicy, simulate_reminders
from repro.sensing.resolution import InteractionType
from repro.util.clock import DAY


def test_bench_reminders_vs_inference(benchmark, simulated_world, pipeline_outcome):
    town, result, horizon_days = simulated_world
    out = pipeline_outcome
    horizon = horizon_days * DAY

    # The same sensing substrate implicit inference used: each client's
    # detected visits.
    visit_times = {}
    for user_id, client in out.clients.items():
        times = [
            interaction.time
            for entity_id in client.snapshot.entity_ids()
            for interaction in client.snapshot.recent(entity_id)
            if interaction.interaction_type is InteractionType.VISIT
        ]
        visit_times[user_id] = times
    propensity = {user.user_id: user.posting_propensity for user in town.users}

    policies = [
        ("gentle (1/wk, boost 5x)", ReminderPolicy(max_prompts_per_week=1, churn_per_prompt=0.01)),
        ("default (2/wk)", ReminderPolicy()),
        ("aggressive (7/wk)", ReminderPolicy(max_prompts_per_week=7, churn_per_prompt=0.04)),
    ]

    def sweep():
        return [
            (name, simulate_reminders(visit_times, propensity, horizon, policy, seed=BENCH_SEED))
            for name, policy in policies
        ]

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)

    spontaneous = out.server.n_explicit_reviews
    inferred = out.server.n_opinions
    rows = [
        ["no reminders (status quo)", "-", spontaneous, "-", "-"],
    ]
    for name, outcome in outcomes:
        rows.append(
            [
                name,
                outcome.n_prompts,
                spontaneous + outcome.n_reviews_gained,
                outcome.n_churned_users,
                f"{outcome.reviews_per_prompt:.2f}",
            ]
        )
    rows.append(["implicit inference (the paper)", 0, spontaneous + inferred, 0, "-"])
    emit(comparison_table(
        "A15: opinions gained — reminders vs implicit inference (same sensing)",
        ["strategy", "prompts", "total opinions", "users churned", "reviews/prompt"],
        rows,
    ))

    best_reminder = max(o.n_reviews_gained for _, o in outcomes)
    aggressive = outcomes[-1][1]
    # Reminders help (the paper concedes "these strategies may help")...
    assert best_reminder > 0.5 * spontaneous
    # ...but implicit inference dwarfs even the best reminder campaign,
    assert inferred > 3 * best_reminder
    # ...and aggressive prompting visibly costs users.
    assert aggressive.n_churned_users > 0
