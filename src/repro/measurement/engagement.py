"""Figure 1(c): explicit vs implicit interaction on Google Play and YouTube.

The paper randomly selected 1000 apps and 1000 videos and compared, for each
entity, the number of users who *explicitly* contributed feedback (reviews,
ratings, comments, likes) against the number who *implicitly* interacted
(installed the app, viewed the video), finding a gap of more than an order
of magnitude.

The substitute model derives the gap from the same mechanism the paper
blames — per-user posting propensity.  Each entity draws an implicit
interaction count from a heavy-tailed Pareto (installs and views span many
decades) and a per-entity feedback rate from a Beta distribution matching
the 1/9/90 participation rule's aggregate (a few percent of interactions
produce feedback); the explicit count is then binomial.  The
order-of-magnitude gap is therefore an output of the model, not an input
constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.distributions import ParetoCount
from repro.util.rng import make_rng


@dataclass(frozen=True)
class EngagementSpec:
    """Calibration of one implicit-interaction service (store or video site)."""

    name: str
    implicit_label: str  # "installs" or "views"
    explicit_label: str  # "reviews + ratings" or "comments + likes"
    n_entities: int
    implicit: ParetoCount
    #: Beta parameters of the per-entity feedback rate.
    feedback_alpha: float
    feedback_beta: float


def google_play_spec() -> EngagementSpec:
    """1000 Google Play apps: installs vs reviews/ratings/+1s."""
    return EngagementSpec(
        name="Google Play",
        implicit_label="installs",
        explicit_label="reviews + ratings",
        n_entities=1000,
        implicit=ParetoCount(minimum=1_000, alpha=0.75, maximum=1_000_000_000),
        feedback_alpha=2.0,
        feedback_beta=78.0,  # mean rate 2.5%
    )


def youtube_spec() -> EngagementSpec:
    """1000 YouTube videos: views vs comments/likes/favorites."""
    return EngagementSpec(
        name="YouTube",
        implicit_label="views",
        explicit_label="comments + likes",
        n_entities=1000,
        implicit=ParetoCount(minimum=2_000, alpha=0.65, maximum=5_000_000_000),
        feedback_alpha=1.5,
        feedback_beta=98.5,  # mean rate 1.5%
    )


@dataclass(frozen=True)
class EngagementDataset:
    """Per-entity implicit and explicit interaction counts for one service."""

    service: str
    implicit_label: str
    explicit_label: str
    implicit: np.ndarray
    explicit: np.ndarray

    def __post_init__(self) -> None:
        if self.implicit.shape != self.explicit.shape:
            raise ValueError("implicit and explicit arrays must align")

    @property
    def n_entities(self) -> int:
        return int(self.implicit.size)

    def median_implicit(self) -> float:
        return float(np.median(self.implicit))

    def median_explicit(self) -> float:
        return float(np.median(self.explicit))

    def median_gap(self) -> float:
        """Ratio of medians — the paper's "order of magnitude" discrepancy."""
        return self.median_implicit() / max(1.0, self.median_explicit())

    def per_entity_gaps(self) -> np.ndarray:
        """Implicit/explicit ratio per entity (explicit clamped to >= 1)."""
        return self.implicit / np.maximum(self.explicit, 1)


def measure_engagement(spec: EngagementSpec, seed: int = 0) -> EngagementDataset:
    """Sample the (implicit, explicit) counts of every entity."""
    rng = make_rng(seed, f"engagement/{spec.name}")
    implicit = spec.implicit.sample(rng, spec.n_entities)
    rates = rng.beta(spec.feedback_alpha, spec.feedback_beta, size=spec.n_entities)
    # Binomial sampling with very large n is exact but slow; the normal
    # approximation is indistinguishable at these scales.  Stay exact below
    # a million interactions, approximate above.
    explicit = np.empty(spec.n_entities, dtype=np.int64)
    small = implicit <= 1_000_000
    explicit[small] = rng.binomial(implicit[small], rates[small])
    big = ~small
    if np.any(big):
        means = implicit[big] * rates[big]
        stds = np.sqrt(implicit[big] * rates[big] * (1 - rates[big]))
        explicit[big] = np.maximum(0, np.rint(rng.normal(means, stds))).astype(np.int64)
    return EngagementDataset(
        service=spec.name,
        implicit_label=spec.implicit_label,
        explicit_label=spec.explicit_label,
        implicit=implicit,
        explicit=explicit,
    )
