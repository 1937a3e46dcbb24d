"""Item-based collaborative filtering — the baseline the paper argues against.

Section 3.1: "Unlike the use of collaborative filtering [30] to suggest
recommendations based on the entities that a user has interacted with, a
search-based interface is more widely applicable.  For example, any
particular user is likely to have interacted with only one or at most a
few doctors and plumbers, preempting the inference of the user's
preferences."

This module implements the cited technique — item-item cosine similarity
over the user-rating matrix (Sarwar et al., WWW '01) — so the claim can be
measured: the A9 benchmark compares how often CF can produce *any*
recommendation for a (user, category) need against the search-based
discovery interface, per entity kind.  CF works passably for restaurants
(dense co-rating) and collapses for doctors and service providers (nobody
co-rates two plumbers), which is precisely the paper's point.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CFRecommendation:
    """One collaborative-filtering recommendation."""

    entity_id: str
    score: float


class ItemBasedCF:
    """Item-item cosine-similarity collaborative filtering.

    Ratings are mean-centered per user (the standard adjusted-cosine
    variant); prediction for an unseen item is the similarity-weighted
    average of the user's own ratings on similar items.
    """

    def __init__(
        self,
        min_corated: int = 2,
        item_groups: dict[str, str] | None = None,
    ) -> None:
        """``item_groups`` optionally scopes similarity to within-group
        item pairs (e.g. only plumber-plumber edges) — how a deployed
        vertical recommender is configured.  Without it, vanilla item CF
        bridges categories through co-rating users."""
        if min_corated < 1:
            raise ValueError("min_corated must be >= 1")
        self.min_corated = min_corated
        self.item_groups = dict(item_groups or {})
        self._ratings: dict[str, dict[str, float]] = {}  # user -> item -> rating
        self._similarity: dict[tuple[str, str], float] = {}
        self._items: set[str] = set()
        self._fitted = False

    def add_rating(self, user_id: str, entity_id: str, rating: float) -> None:
        """Record one explicit rating (training signal)."""
        if not 0.0 <= rating <= 5.0:
            raise ValueError("rating must lie in [0, 5]")
        self._ratings.setdefault(user_id, {})[entity_id] = rating
        self._items.add(entity_id)
        self._fitted = False

    def fit(self) -> "ItemBasedCF":
        """Compute adjusted-cosine item-item similarities."""
        by_item: dict[str, dict[str, float]] = defaultdict(dict)
        means: dict[str, float] = {}
        for user_id, items in self._ratings.items():
            if not items:
                continue
            means[user_id] = float(np.mean(list(items.values())))
            for entity_id, rating in items.items():
                by_item[entity_id][user_id] = rating - means[user_id]

        self._similarity = {}
        item_list = sorted(by_item)
        for i, item_a in enumerate(item_list):
            users_a = by_item[item_a]
            for item_b in item_list[i + 1 :]:
                if self.item_groups and self.item_groups.get(
                    item_a
                ) != self.item_groups.get(item_b):
                    continue
                users_b = by_item[item_b]
                common = users_a.keys() & users_b.keys()
                if len(common) < self.min_corated:
                    continue
                va = np.asarray([users_a[u] for u in common])
                vb = np.asarray([users_b[u] for u in common])
                na, nb = np.linalg.norm(va), np.linalg.norm(vb)
                if na == 0 or nb == 0:
                    continue
                similarity = float(va @ vb / (na * nb))
                self._similarity[(item_a, item_b)] = similarity
                self._similarity[(item_b, item_a)] = similarity
        self._fitted = True
        return self

    def similar_items(self, entity_id: str) -> list[tuple[str, float]]:
        """Items with a defined similarity to ``entity_id``."""
        if not self._fitted:
            raise RuntimeError("fit() first")
        return sorted(
            (
                (other, sim)
                for (a, other), sim in self._similarity.items()
                if a == entity_id
            ),
            key=lambda pair: -pair[1],
        )

    def recommend(
        self,
        user_id: str,
        candidates: list[str],
        top_k: int = 5,
    ) -> list[CFRecommendation]:
        """Recommend among ``candidates`` for ``user_id``.

        Returns an empty list when CF has nothing to say — no ratings from
        this user, or no similarity edges connecting their rated items to
        any candidate.  That emptiness is the statistic the paper's
        argument rests on.
        """
        if not self._fitted:
            raise RuntimeError("fit() first")
        own = self._ratings.get(user_id, {})
        if not own:
            return []
        scored: list[CFRecommendation] = []
        for candidate in candidates:
            if candidate in own:
                continue
            numerator = 0.0
            denominator = 0.0
            for rated_item, rating in own.items():
                similarity = self._similarity.get((candidate, rated_item))
                if similarity is None or similarity <= 0:
                    continue
                numerator += similarity * rating
                denominator += similarity
            if denominator > 0:
                scored.append(CFRecommendation(candidate, numerator / denominator))
        scored.sort(key=lambda r: -r.score)
        return scored[:top_k]

    def can_recommend(self, user_id: str, candidates: list[str]) -> bool:
        """Does CF produce at least one recommendation for this need?"""
        return bool(self.recommend(user_id, candidates, top_k=1))


@dataclass(frozen=True)
class ApplicabilityReport:
    """How often an approach can serve a (user, category) need at all."""

    approach: str
    by_kind: dict[str, tuple[int, int]]  # kind -> (servable, total)

    def rate(self, kind: str) -> float:
        servable, total = self.by_kind.get(kind, (0, 0))
        return servable / total if total else 0.0


def cf_applicability(
    cf: ItemBasedCF,
    needs: list[tuple[str, str, list[str]]],
    kind_of: dict[str, str],
) -> ApplicabilityReport:
    """Measure CF coverage over ``(user_id, category, candidate_ids)`` needs."""
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for user_id, category, candidates in needs:
        kind = kind_of.get(category, category)
        counts[kind][1] += 1
        if cf.can_recommend(user_id, candidates):
            counts[kind][0] += 1
    return ApplicabilityReport(
        approach="item-based CF",
        by_kind={kind: (s, t) for kind, (s, t) in counts.items()},
    )
