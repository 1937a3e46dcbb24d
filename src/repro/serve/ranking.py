"""The serving layer's ranking function — the spec lives in docs/SERVING.md.

A ranked result's score blends three signals from one
:class:`~repro.core.aggregation.EntityOpinionSummary`:

* **smoothed quality** — the Bayesian-smoothed combined mean of explicit
  and inferred opinions: entities with little
  evidence shrink toward the prior, so one 5-star review does not outrank
  forty 4.2-star inferences;
* **evidence volume** — ``log1p(total opinions)``, a logarithmic bonus so
  well-covered entities win ties without drowning quality;
* **helpfulness** — the fraction of the entity's opinions that carry full
  influence weight (PAPERS.md: the Amazon helpfulness-votes study).
  Explicit reviews count as fully helpful; an inferred opinion counts by
  its :func:`~repro.core.aggregation.influence_weight`, so an entity
  whose score rests on mature interaction histories outranks one propped
  up by thin (sybil-shaped) histories with the same mean.

``serve_score`` is monotone in the helpfulness signal by construction
(the signal enters linearly with a non-negative weight), and
:func:`helpfulness_signal` is monotone in ``inferred_weight`` holding
the counts fixed — ``tests/serve/test_ranking.py`` pins both.

**Tie-breaking is total**: results sort by ``(-score, distance_km,
entity_id)``.  Scores and distances are floats and may collide;
``entity_id`` is unique, so the composite key is a strict total order —
any permutation of the input produces the identical ranking, which is
what makes rendered responses byte-comparable across deployments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.aggregation import EntityOpinionSummary


@dataclass(frozen=True)
class RankingConfig:
    """Knobs of the serve-path score (defaults are the documented spec)."""

    #: Prior the smoothed mean shrinks toward with little evidence.
    prior_mean: float = 2.5
    #: Pseudo-observations behind the prior.
    prior_weight: float = 5.0
    #: Coefficient of the ``log1p(n)`` evidence-volume bonus.
    volume_weight: float = 0.15
    #: Coefficient of the helpfulness signal (must be >= 0 to keep the
    #: score monotone in helpfulness).
    helpfulness_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.prior_weight < 0 or self.volume_weight < 0:
            raise ValueError("weights must be non-negative")
        if self.helpfulness_weight < 0:
            raise ValueError("helpfulness_weight must be non-negative")


#: The documented default used by every serving layer.
DEFAULT_RANKING = RankingConfig()


def helpfulness_signal(summary: EntityOpinionSummary) -> float:
    """Fraction of the entity's opinions carrying full influence, in [0, 1].

    Explicit reviews are attributed and quota-bounded, so each counts as
    one fully helpful vote; inferred opinions count by their summed
    influence weight (thin histories contribute fractionally — Section
    4.3).  No opinions at all yields 0.
    """
    total = summary.n_explicit_reviews + summary.n_inferred_opinions
    if total == 0:
        return 0.0
    helpful = summary.n_explicit_reviews + min(
        summary.inferred_weight, float(summary.n_inferred_opinions)
    )
    return helpful / total


def serve_score(
    summary: EntityOpinionSummary, config: RankingConfig = DEFAULT_RANKING
) -> float:
    """The serve-path ranking score (see the module docstring for the spec)."""
    mean = summary.combined_mean
    n = summary.total_opinions
    if mean is None or n == 0:
        smoothed = config.prior_mean
    else:
        smoothed = (mean * n + config.prior_mean * config.prior_weight) / (
            n + config.prior_weight
        )
    return (
        smoothed
        + config.volume_weight * math.log1p(n)
        + config.helpfulness_weight * helpfulness_signal(summary)
    )


def rank_key(score: float, distance_km: float, entity_id: str) -> tuple:
    """The total sort key: score desc, then distance, then entity id.

    ``entity_id`` is unique within a catalog, so two distinct results
    never compare equal — the ranking is a strict total order.
    """
    return (-score, distance_km, entity_id)
