"""Quickstart: simulate a town, run the RSP end to end, search for dinner.

Runs the complete architecture of the paper's Figure 2 on a small synthetic
town — behaviour simulation, on-device sensing and inference, anonymous
uploads, server-side fraud filtering and aggregation — then issues a search
query and prints what a user of the re-architected service would see.

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.discovery import Query
from repro.orchestration.pipeline import PipelineConfig, run_full_pipeline
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

SEED = 42


def main() -> None:
    print("1. Building a synthetic town (80 users, restaurants, doctors, plumbers)...")
    town = build_town(TownConfig(n_users=80), seed=SEED)

    print("2. Simulating 120 days of physical life...")
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=120), seed=SEED
    ).run()
    print(f"   {len(result.events)} ground-truth interactions, "
          f"but only {len(result.reviews)} reviews were ever posted.")

    print("3. Running the RSP: sensing -> inference -> anonymous upload -> aggregation...")
    outcome = run_full_pipeline(
        town, result, PipelineConfig(horizon_days=120.0, seed=SEED)
    )
    server = outcome.server
    print(f"   explicit reviews:   {server.n_explicit_reviews}")
    print(f"   inferred opinions:  {server.n_opinions}")
    print(f"   anonymous histories: {server.n_histories}")
    print(f"   opinion gain:       {outcome.coverage_gain():.1f}x")
    print(f"   inference MAE:      {outcome.mean_absolute_error:.2f} stars")

    print("\n4. Searching for Thai food near the town center...")
    center = town.grid.zones[len(town.grid.zones) // 2].center
    response = server.search(Query(category="thai", near=center, radius_km=10.0))
    print(response.render())

    if response.visualization is not None:
        print("\n5. Comparative visualizations for the top results:")
        print(response.visualization.render())


if __name__ == "__main__":
    main()
