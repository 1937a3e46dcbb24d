"""F1c — Figure 1(c): explicit vs implicit interaction on Google Play / YouTube.

Paper: "the discrepancy between the number of users who have interacted
with each entity and those who have explicitly provided feedback is more
than an order of magnitude" (1000 apps, 1000 videos).
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED

from repro.measurement import (
    figure1c,
    google_play_spec,
    measure_engagement,
    youtube_spec,
)


def run_engagement(seed: int):
    datasets = [
        measure_engagement(google_play_spec(), seed=seed),
        measure_engagement(youtube_spec(), seed=seed),
    ]
    return datasets, figure1c(datasets)


def test_bench_fig1c(benchmark):
    datasets, figure = benchmark.pedantic(
        run_engagement, args=(BENCH_SEED,), rounds=1, iterations=1
    )

    rows = []
    for dataset in datasets:
        rows.append(
            [
                dataset.service,
                f"{dataset.median_implicit():,.0f}",
                f"{dataset.median_explicit():,.0f}",
                "> 10x",
                f"{dataset.median_gap():.0f}x",
            ]
        )
    emit(comparison_table(
        "Figure 1(c): implicit vs explicit interaction",
        ["service", "median implicit", "median explicit", "paper gap", "measured gap"],
        rows,
    ))
    emit(figure.render())

    for dataset in datasets:
        assert dataset.n_entities == 1000  # paper's sample size
        assert dataset.median_gap() > 10  # the order-of-magnitude claim
        assert (dataset.explicit <= dataset.implicit).all()
    # The explicit CDF must sit left of the implicit CDF everywhere shown.
    gp_implicit = figure.cdfs["Google Play installs"]
    gp_explicit = figure.cdfs["Google Play reviews + ratings"]
    for x in (10, 100, 1_000, 10_000, 100_000):
        assert gp_explicit.evaluate(x) >= gp_implicit.evaluate(x)
