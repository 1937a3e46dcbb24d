"""T1 — Table 1: summary of measurements.

Paper: Yelp 9 categories / 24,417 restaurants; Angie's List 24 / 26,066
service providers; Healthgrades 4 / 24,922 doctors, over the most populous
zipcode of each of the 50 states.
"""

from _harness import comparison_table, emit
from conftest import BENCH_SEED

from repro.measurement import all_service_specs, crawl_service, table1

PAPER = {
    "Yelp": (9, 24_417),
    "Angie's List": (24, 26_066),
    "Healthgrades": (4, 24_922),
}


def run_table1(seed: int):
    return table1([crawl_service(spec, seed=seed) for spec in all_service_specs()])


def test_bench_table1(benchmark, crawls):
    result = benchmark.pedantic(run_table1, args=(BENCH_SEED,), rounds=1, iterations=1)

    rows = []
    for row in result.rows:
        paper_categories, paper_entities = PAPER[row.service]
        rows.append(
            [
                row.service,
                f"{paper_categories} / {paper_entities:,}",
                f"{row.n_categories} / {row.n_entities:,}",
            ]
        )
    emit(comparison_table(
        "Table 1: summary of measurements",
        ["service", "paper (cats / entities)", "measured (cats / entities)"],
        rows,
    ))
    emit(result.render())

    for row in result.rows:
        paper_categories, paper_entities = PAPER[row.service]
        assert row.n_categories == paper_categories
        assert abs(row.n_entities - paper_entities) < 0.2 * paper_entities
