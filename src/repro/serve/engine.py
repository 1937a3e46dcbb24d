"""The serve-path query engine: ranked "best X near Y" with Fig-3 context.

The engine is pure computation over inputs handed to it per call — the
candidate index (static), and the summaries and Figure 3 panels the last
maintenance cycle published.  Its only state is memos of pure functions:
each entity's zero-evidence summary and empty-history panels (functions
of the static entity id alone), and each entity's score together with
the summary object it was computed from, reused only while the published
summary is that same object.  Being pure is what lets
:class:`~repro.serve.facade.ServingLayer` interpose its result cache:
the same inputs always produce byte-identical rendered responses
(``ServeResponse.render``), at any shard count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.aggregation import EntityOpinionSummary
from repro.core.visualization import (
    ComparativeVisualization,
    EntityPanels,
    compare_panels,
    entity_panels,
)
from repro.serve.index import SummaryIndex
from repro.serve.ranking import DEFAULT_RANKING, RankingConfig, rank_key, serve_score
from repro.world.entities import Entity
from repro.world.geography import Point


@dataclass(frozen=True)
class ServeQuery:
    """A read-path query; hashable so it doubles as the cache key."""

    category: str
    near: Point
    radius_km: float = 8.0
    #: Optional attribute filter, e.g. ``"price:2"`` (see ``price_tag``).
    attribute: str | None = None
    #: Ranked results kept in the response.
    limit: int = 10
    #: Top entities given Figure-3 comparative panels.
    compare_top: int = 3

    def __post_init__(self) -> None:
        if self.radius_km <= 0:
            raise ValueError("radius must be positive")
        if self.limit <= 0:
            raise ValueError("limit must be positive")
        if self.compare_top < 0:
            raise ValueError("compare_top must be non-negative")
        # Every cache probe hashes the query, so the hash is computed once
        # here: one flat tuple, without the generated hash's nested call
        # into ``Point.__hash__``.  Equal queries have equal fields, so
        # they still hash equal.  ``_hash`` is not a field, so it stays
        # out of ``==`` and ``repr``.
        object.__setattr__(self, "_hash", self._flat_hash())

    def _flat_hash(self) -> int:
        near = self.near
        return hash(
            (
                self.category,
                near.x,
                near.y,
                self.radius_km,
                self.attribute,
                self.limit,
                self.compare_top,
            )
        )

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # ``str`` hashes are salted per process, so the stored hash never
        # travels; unpickling computes it afresh.
        state = self.__dict__.copy()
        del state["_hash"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_hash", self._flat_hash())


@dataclass(frozen=True)
class ServeResult:
    """One ranked result with its evidence."""

    entity: Entity
    distance_km: float
    summary: EntityOpinionSummary
    score: float


@dataclass(frozen=True)
class ServeResponse:
    """Ranked results plus comparative context, renderable to stable bytes."""

    query: ServeQuery
    results: tuple[ServeResult, ...]
    #: Matches before the ``limit`` cut.
    n_matches: int
    visualization: ComparativeVisualization | None

    @property
    def n_results(self) -> int:
        return len(self.results)

    def render(self) -> str:
        query = self.query
        where = f"({query.near.x:g}, {query.near.y:g})"
        tag = f" [{query.attribute}]" if query.attribute is not None else ""
        lines = [
            f"Best {query.category!r}{tag} near {where} within "
            f"{query.radius_km:g} km ({self.n_matches} matches)"
        ]
        for rank, result in enumerate(self.results, start=1):
            summary = result.summary
            explicit = (
                f"{summary.explicit_mean:.1f}* x{summary.n_explicit_reviews}"
                if summary.explicit_mean is not None
                else "no reviews"
            )
            inferred = (
                f"{summary.inferred_mean:.1f}* x{summary.n_inferred_opinions} inferred"
                if summary.inferred_mean is not None
                else "no inferences"
            )
            lines.append(
                f"{rank:2d}. {result.entity.entity_id:24s} "
                f"{result.score:6.3f}  {result.distance_km:4.1f} km  "
                f"[{explicit} | {inferred}]"
            )
        if self.visualization is not None:
            lines.append("")
            lines.append(self.visualization.render())
        return "\n".join(lines)


def empty_summary(entity_id: str) -> EntityOpinionSummary:
    """The zero-evidence summary used for entities no cycle has touched."""
    return EntityOpinionSummary(
        entity_id=entity_id,
        n_explicit_reviews=0,
        explicit_mean=None,
        explicit_histogram=[0] * 5,
        n_inferred_opinions=0,
        inferred_mean=None,
        inferred_histogram=[0] * 5,
        n_interacting_users=0,
        effective_interactions=0.0,
        raw_interactions=0,
    )


class QueryEngine:
    """Ranks index candidates under the serve-path scoring spec.

    A response keeps at most ``max(limit, compare_top)`` results, so the
    engine keys every match once and materializes only that prefix: the
    ``ServeResult`` objects, and — built once per entity, the catalog
    being static — the zero-evidence summaries of unsummarized entities
    and their empty-history Figure-3 panels.

    A published summary changes only by being replaced, once per
    maintenance cycle, so each entity's score is memoized next to the
    summary it was computed from and recomputed only when the published
    summary is a different object.
    """

    def __init__(
        self, index: SummaryIndex, ranking: RankingConfig = DEFAULT_RANKING
    ) -> None:
        self.index = index
        self.ranking = ranking
        #: The score of every unsummarized entity (it ignores the id).
        self._empty_score = serve_score(empty_summary(""), ranking)
        self._empty_summaries: dict[str, EntityOpinionSummary] = {}
        self._empty_panels: dict[str, EntityPanels] = {}
        #: entity_id -> (the summary last scored, its score).
        self._scores: dict[str, tuple[EntityOpinionSummary, float]] = {}

    def _select(
        self,
        query: ServeQuery,
        summaries: dict[str, EntityOpinionSummary],
        top: int | None,
    ) -> tuple[int, list[ServeResult]]:
        """``(n_matches, best top results)``; ``top=None`` keeps them all."""
        keyed = []
        scores = self._scores
        for entity, distance in self.index.candidates(
            query.category, query.near, query.radius_km, query.attribute
        ):
            entity_id = entity.entity_id
            summary = summaries.get(entity_id)
            if summary is None:
                score = self._empty_score
            else:
                memo = scores.get(entity_id)
                if memo is not None and memo[0] is summary:
                    score = memo[1]
                else:
                    score = serve_score(summary, self.ranking)
                    scores[entity_id] = (summary, score)
            # Keys are unique (entity ids are), so no comparison ever
            # reaches the entity or the summary.
            keyed.append(
                (rank_key(score, distance, entity_id), distance, score, entity, summary)
            )
        chosen = sorted(keyed) if top is None else heapq.nsmallest(top, keyed)
        return len(keyed), [
            ServeResult(
                entity=entity,
                distance_km=distance,
                summary=self._empty_summary(entity.entity_id) if summary is None else summary,
                score=score,
            )
            for _, distance, score, entity, summary in chosen
        ]

    def rank(
        self, query: ServeQuery, summaries: dict[str, EntityOpinionSummary]
    ) -> list[ServeResult]:
        """Every match, best first (total order — see ``repro.serve.ranking``)."""
        return self._select(query, summaries, None)[1]

    def _empty_summary(self, entity_id: str) -> EntityOpinionSummary:
        """The entity's zero-evidence summary, built once."""
        empty = self._empty_summaries.get(entity_id)
        if empty is None:
            empty = self._empty_summaries[entity_id] = empty_summary(entity_id)
        return empty

    def _panels(
        self, entity_id: str, panels: dict[str, EntityPanels]
    ) -> EntityPanels:
        """Published panels, else the entity's empty-history ones."""
        published = panels.get(entity_id)
        if published is not None:
            return published
        empty = self._empty_panels.get(entity_id)
        if empty is None:
            empty = self._empty_panels[entity_id] = entity_panels(entity_id, [])
        return empty

    def respond(
        self,
        query: ServeQuery,
        summaries: dict[str, EntityOpinionSummary],
        panels: dict[str, EntityPanels],
    ) -> ServeResponse:
        """Rank, cut to ``limit``, and attach Figure-3 panels for the top
        (an entity without published panels gets the empty-history ones)."""
        n_matches, ranked = self._select(
            query, summaries, max(query.limit, query.compare_top)
        )
        visualization: ComparativeVisualization | None = None
        top = [r.entity.entity_id for r in ranked[: query.compare_top]]
        if top:
            visualization = compare_panels(
                {entity_id: self._panels(entity_id, panels) for entity_id in top}
            )
        return ServeResponse(
            query=query,
            results=tuple(ranked[: query.limit]),
            n_matches=n_matches,
            visualization=visualization,
        )
