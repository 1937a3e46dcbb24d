"""A11 — sybil influence: thin histories barely move aggregates.

Section 4.3 concedes that small fake histories evade judgement but argues
"such an interaction history will have limited influence on others."  The
bench stages a sybil rating campaign (many devices, 1-2 plausible visits
each, all uploading 5-star opinions for a mediocre restaurant) against the
full server and measures the achieved rating shift under influence
weighting versus an unweighted counterfactual.
"""

from _harness import comparison_table, emit

import numpy as np

from repro.core.aggregation import OpinionUpload, summarize_entity
from repro.fraud.attackers import SybilAttacker
from repro.world.entities import EntityKind


def test_bench_sybil_rating_shift(benchmark, simulated_world, pipeline_outcome):
    town, _, _ = simulated_world
    out = pipeline_outcome
    server = out.server

    # Pick a restaurant with a settled honest summary to attack.
    target = None
    for entity in town.entities_of_kind(EntityKind.RESTAURANT):
        summary = server.summary(entity.entity_id)
        if summary is not None and summary.n_inferred_opinions >= 5:
            target = entity.entity_id
            break
    assert target is not None

    honest_histories = server._engine.accepted.get(target, [])
    honest_opinions = [
        o for shard in server.shards for o in shard.opinions.values() if o.entity_id == target
    ]
    baseline = summarize_entity(
        target, honest_histories, honest_opinions, explicit_ratings=[]
    )

    def stage_attack():
        sybils = SybilAttacker(n_devices=25, interactions_per_device=1).generate_all(
            target, 0.0, seed=99
        )
        from repro.privacy.history_store import HistoryStore

        attack_store = HistoryStore()
        for history in honest_histories:
            for record in history.records:
                attack_store.append(record.upload, arrival_time=record.arrival_time)
        sybil_opinions = []
        for result in sybils:
            for upload in result.uploads:
                attack_store.append(upload, arrival_time=upload.event_time)
            sybil_opinions.append(
                OpinionUpload(
                    history_id=result.uploads[0].history_id,
                    entity_id=target,
                    rating=5.0,
                )
            )
        polluted_histories = attack_store.histories_for_entity(target)
        polluted_opinions = honest_opinions + sybil_opinions
        weighted = summarize_entity(
            target, polluted_histories, polluted_opinions, explicit_ratings=[]
        )
        # Counterfactual: what the mean would be with one-history-one-vote.
        depth = {h.history_id: h.n_interactions for h in polluted_histories}
        flat_ratings = [
            o.rating for o in polluted_opinions if o.history_id in depth
        ]
        unweighted_mean = float(np.mean(flat_ratings))
        return weighted, unweighted_mean

    weighted, unweighted_mean = benchmark.pedantic(stage_attack, rounds=1, iterations=1)

    honest_mean = baseline.inferred_mean
    shift_weighted = weighted.inferred_mean - honest_mean
    shift_unweighted = unweighted_mean - honest_mean
    emit(comparison_table(
        "A11: 25-device sybil 5-star campaign against one restaurant",
        ["aggregate", "mean rating", "shift vs honest"],
        [
            ["honest baseline", f"{honest_mean:.2f}", "-"],
            ["unweighted (one history = one vote)", f"{unweighted_mean:.2f}",
             f"{shift_unweighted:+.2f}"],
            ["influence-weighted (Section 4.3)", f"{weighted.inferred_mean:.2f}",
             f"{shift_weighted:+.2f}"],
        ],
    ))

    assert shift_unweighted > 0.1  # the attack would work unweighted
    # Weighting damps the shift; full mitigation would require mature
    # (3-visit) sybil histories, i.e. ~3x the fabrication effort per vote.
    assert shift_weighted < 0.85 * shift_unweighted
    effort_multiplier = shift_unweighted / max(shift_weighted, 1e-9)
    emit(comparison_table(
        "A11: attacker economics",
        ["metric", "value"],
        [["extra effort to match unweighted impact", f"{effort_multiplier:.1f}x"]],
    ))
