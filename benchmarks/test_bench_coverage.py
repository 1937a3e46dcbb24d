"""A2 — opinion coverage: explicit-only vs implicit inference, swept over
app adoption.

Section 2's implication, measured: "if the opinion of even a fraction of
those who have interacted with an entity but not provided feedback can be
implicitly inferred ... the number of opinions that users can draw upon for
a typical entity can be dramatically increased."  The sweep varies the
fraction of users running the RSP's app.
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED


from repro.orchestration.pipeline import PipelineConfig, run_full_pipeline


def test_bench_coverage_vs_adoption(benchmark, simulated_world):
    town, result, horizon_days = simulated_world
    adoption_levels = (0.25, 0.5, 1.0)

    def sweep():
        rows = []
        for adoption in adoption_levels:
            config = PipelineConfig(horizon_days=horizon_days, seed=BENCH_SEED)
            outcome = run_full_pipeline(
                town, result, config, max_users=int(len(town.users) * adoption)
            )
            rows.append(
                (
                    adoption,
                    outcome.server.n_explicit_reviews,
                    outcome.server.n_opinions,
                    outcome.coverage_gain(),
                    outcome.median_opinions_after(),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    emit(comparison_table(
        "A2: opinion coverage vs app adoption",
        ["adoption", "explicit reviews", "inferred opinions", "total gain", "median opinions/entity"],
        [
            [f"{a:.0%}", e, i, f"{g:.1f}x", f"{m:.0f}"]
            for a, e, i, g, m in rows
        ],
    ))

    gains = [g for _, _, _, g, _ in rows]
    inferred = [i for _, _, i, _, _ in rows]
    # More adoption, more inferred opinions; full adoption gives the
    # paper's "dramatic" (multi-x) increase.
    assert inferred == sorted(inferred)
    assert gains[-1] > 3.0
    assert inferred[-1] > 5 * rows[-1][1]  # inferred dwarf explicit
