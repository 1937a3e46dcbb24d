"""A deployed RSP over time: epochs, corrections, personalization.

Runs the service the way it would actually operate — monthly client syncs
over half a year — then shows the user-facing features of Section 5:
the transparency log with a correction, and on-device personalized
re-ranking of a server query.

    python examples/lifecycle.py
"""

from __future__ import annotations

from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig
from repro.serve.engine import ServeQuery
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

SEED = 21


def main() -> None:
    print("Simulating 70 users for 180 days...")
    town = build_town(TownConfig(n_users=70), seed=SEED)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=180), seed=SEED
    ).run()

    print("Operating the RSP in six monthly epochs:\n")
    outcome = run_epochs(
        town, result, PipelineConfig(horizon_days=180.0, seed=SEED), n_epochs=6
    )
    print(f"{'epoch':>5} {'new records':>12} {'histories':>10} "
          f"{'opinions':>9} {'fraud-rejected':>15}")
    for report in outcome.reports:
        print(f"{report.epoch:>5} {report.new_records:>12} {report.total_histories:>10} "
              f"{report.n_opinions:>9} {report.maintenance.n_rejected_histories:>15}")

    server = outcome.server

    # Pick an active client and walk through the Section 5 features.
    client = max(outcome.clients.values(), key=lambda c: c.transparency.n_entries)
    print(f"\nTransparency log of {client.identity.device_id} "
          f"({client.transparency.n_entries} inferences):")
    for entry in client.transparency.audit()[:5]:
        rating = entry.effective_rating
        shown = f"{rating:.1f}*" if rating is not None else "abstained"
        print(f"  {entry.entity_id:24s} {shown:10s} ({entry.evidence})")

    rated = [e for e in client.transparency.audit() if e.effective_rating is not None]
    if rated:
        target = rated[0].entity_id
        print(f"\nThe user disagrees with the inference for {target} and corrects it to 1.0:")
        client.transparency.correct(target, 1.0)
        print(f"  effective rating now: {client.transparency.entry(target).effective_rating}")

        entity = town.entity(target)
        response = server.query(
            ServeQuery(
                category=entity.category, near=entity.location, radius_km=12.0, limit=5
            )
        )
        print(f"\nServer ranking for {entity.category!r} near the corrected entity:")
        print(response.render())
        print("\nSame results personalized on the user's device "
              "(their correction and travel tolerance applied):")
        for rank, personalized in enumerate(client.personalize_response(response), start=1):
            print(f"{rank:2d}. {personalized.entity_id:24s} "
                  f"server score {personalized.base.score:.2f} "
                  f"{personalized.personal_adjustment:+.2f} personal")


if __name__ == "__main__":
    main()
