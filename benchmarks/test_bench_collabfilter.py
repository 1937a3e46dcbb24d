"""A9 — collaborative filtering vs the search-based interface.

Section 3.1's design argument, measured: CF "suggests recommendations
based on the entities that a user has interacted with", which requires
co-rating density that exists for restaurants and not for doctors or
service providers; the search-based interface answers every query from
per-entity aggregates regardless.  The bench trains item CF on the
simulated world's explicit reviews and counts, per entity kind, how many
(user, category) needs each approach can serve at all.
"""

from _harness import comparison_table, emit

from repro.core.collabfilter import ItemBasedCF, cf_applicability
from repro.serve.engine import ServeQuery
from repro.world.entities import EntityKind, InteractionStyle


def test_bench_cf_vs_search(benchmark, simulated_world, pipeline_outcome):
    town, result, _ = simulated_world
    out = pipeline_outcome
    kind_of_entity = {e.entity_id: e.kind.label for e in town.entities}
    kind_of_category = {}
    for entity in town.entities:
        kind_of_category[entity.category] = entity.kind.label

    # Needs: every user asking for every category their kind of life requires.
    categories = sorted({e.category for e in town.entities})
    by_category = {
        category: [e.entity_id for e in town.entities if e.category == category]
        for category in categories
    }
    needs = [
        (user.user_id, category, by_category[category])
        for user in town.users
        for category in categories
    ]

    def run_both():
        # Give CF its best case: not just the 1%% of posted reviews, but a
        # rating for EVERY settled (user, entity) opinion — as if every
        # user rated in-app the way Netflix viewers do.  The sparsity that
        # remains is physical-world sparsity (one plumber per household),
        # which is exactly the paper's argument.
        cf = ItemBasedCF(item_groups=kind_of_entity)
        for (user_id, entity_id), truth in result.opinions.items():
            if truth.settled:
                cf.add_rating(user_id, entity_id, truth.opinion)
        cf.fit()
        cf_report = cf_applicability(cf, needs, kind_of_category)

        # ``rank`` returns every match, so "informed" never depends on
        # where a response's ``limit`` would cut.
        rank = out.server.serving.engine.rank
        summaries = out.server.all_summaries()
        search_counts: dict[str, list[int]] = {}
        for user in town.users:
            for category in categories:
                kind = kind_of_category[category]
                servable, total = search_counts.setdefault(kind, [0, 0])
                search_counts[kind][1] += 1
                results = rank(
                    ServeQuery(category=category, near=user.home, radius_km=12.0),
                    summaries,
                )
                # "Informed" counts either opinions (explicit or
                # inferred) or the aggregate-activity visualizations of
                # Section 4.1 — the RSP's two outputs.
                informed = any(
                    r.summary.total_opinions > 0 or r.summary.n_interacting_users > 0
                    for r in results
                )
                if informed:
                    search_counts[kind][0] += 1
        return cf_report, search_counts

    cf_report, search_counts = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = []
    kinds = sorted(search_counts)
    for kind in kinds:
        servable, total = search_counts[kind]
        rows.append(
            [
                kind,
                f"{cf_report.rate(kind):.0%}",
                f"{servable / total:.0%}" if total else "-",
            ]
        )
    emit(comparison_table(
        "A9: fraction of (user, category) needs each approach can serve",
        ["entity kind", "item-based CF", "search + implicit inference"],
        rows,
    ))

    # CF is essentially useless outside restaurants; the search interface
    # serves (nearly) everything — the paper's applicability argument.
    style_of = {kind.label: kind.style for kind in EntityKind}
    for kind in kinds:
        servable, total = search_counts[kind]
        search_rate = servable / total
        assert search_rate > 0.6, kind
        if style_of[kind] is not InteractionStyle.VISIT_FREQUENT:
            # Physical-world sparsity preempts CF outside restaurants,
            # while search answers nearly every need.
            assert cf_report.rate(kind) < 0.15, kind
            assert search_rate > cf_report.rate(kind) + 0.3, kind
    # And CF should actually work where co-interaction is dense, so the
    # comparison is against a functioning baseline, not a broken one.
    assert cf_report.rate("restaurant") > 0.5
