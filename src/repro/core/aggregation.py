"""Server-side aggregation: opinion summaries with group-visit deflation.

The RSP never sees individual users, only anonymous per-(user, entity)
histories and anonymous inferred-opinion uploads.  This module turns those
into the per-entity summaries the search interface shows:

* a histogram of inferred ratings next to the explicit-review histogram
  (the paper's "summary of inferred opinions");
* aggregate activity statistics (how many anonymous users interact, how
  often, from how far) feeding the comparative visualizations;
* **group deflation** (Section 4.1): "when a set of users interact with the
  same entity as a group ... an RSP must explicitly account for such
  instances to ensure that the collective recommendation power of groups
  does not artificially inflate the aggregate activity."  Interactions from
  different histories that share an arrival signature (same quantized event
  time, same duration) are collapsed into a single effective interaction;
* **influence weighting** (Section 4.3): "though it is hard to evaluate
  whether the interactions between a user and an entity are fake if the
  number of interactions is small, such an interaction history will have
  limited influence on others."  An inferred opinion's weight grows with
  its history's interaction count up to a maturity threshold, so a sybil
  swarm of two-visit histories moves an aggregate far less than the same
  number of established customers.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.privacy.history_store import InteractionHistory


@dataclass(frozen=True, slots=True)
class OpinionUpload:
    """An anonymously uploaded inferred opinion for one entity.

    ``seq`` is a per-history upload version: the client bumps it every
    time it re-uploads a changed inference for the same ``history_id``.
    The server keeps the highest ``seq`` per slot (ties keep the existing
    record), so a delayed or reordered stale re-upload can never clobber
    a newer inference — arrival order carries no meaning on an anonymous,
    at-least-once channel.  It counts uploads, not wall-clock time, so it
    leaks nothing beyond what the upload itself already reveals.
    """

    history_id: str
    entity_id: str
    rating: float
    seq: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rating <= 5.0:
            raise ValueError("rating must lie in [0, 5]")
        if self.seq < 0:
            raise ValueError("seq must be >= 0")


#: Star-bucket edges for rating histograms (5 buckets: [0,1), ..., [4,5]).
RATING_EDGES = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0001)


def rating_histogram(ratings: list[float]) -> list[int]:
    """Count ratings into the five star buckets.

    The same counts as ``np.histogram(ratings, bins=RATING_EDGES)``:
    each bucket is half-open except the last, which holds its right
    edge, and values outside ``[0, 5.0001]`` (NaN included) count
    nowhere.  Counted in Python, which costs less than
    ``np.histogram``'s fixed overhead for the few ratings most summaries
    hold.
    """
    counts = [0] * (len(RATING_EDGES) - 1)
    low, high, last = RATING_EDGES[0], RATING_EDGES[-1], len(counts) - 1
    for rating in ratings:
        if low <= rating <= high:
            counts[min(bisect_right(RATING_EDGES, rating) - 1, last)] += 1
    return counts


@dataclass(frozen=True)
class EntityOpinionSummary:
    """Everything the search interface shows for one entity."""

    entity_id: str
    n_explicit_reviews: int
    explicit_mean: float | None
    explicit_histogram: list[int]
    n_inferred_opinions: int
    inferred_mean: float | None
    inferred_histogram: list[int]
    #: Anonymous users with at least one interaction.
    n_interacting_users: int
    #: Effective interactions after group deflation.
    effective_interactions: float
    #: Raw interactions before deflation.
    raw_interactions: int
    #: Sum of inferred-opinion influence weights (<= n_inferred_opinions);
    #: thin histories contribute fractionally (Section 4.3).
    inferred_weight: float = 0.0

    @property
    def total_opinions(self) -> int:
        """The coverage statistic of the A2 benchmark."""
        return self.n_explicit_reviews + self.n_inferred_opinions

    @property
    def combined_mean(self) -> float | None:
        values: list[float] = []
        weights: list[float] = []
        if self.explicit_mean is not None and self.n_explicit_reviews:
            values.append(self.explicit_mean)
            weights.append(self.n_explicit_reviews)
        if self.inferred_mean is not None and self.inferred_weight > 0:
            values.append(self.inferred_mean)
            weights.append(self.inferred_weight)
        if not values:
            return None
        return float(np.average(values, weights=weights))


def deflate_groups(
    histories: list[InteractionHistory],
    time_quantum: float = 1.0,
) -> tuple[float, int]:
    """Collapse group co-visits into effective interaction counts.

    Two interactions in *different* histories with the same quantized event
    time and identical duration are almost surely the same physical group
    outing observed from several phones.  Each such cluster counts once.

    Returns ``(effective_interactions, raw_interactions)``.
    """
    raw = sum(len(history.records) for history in histories)
    if raw == 0:
        return 0.0, 0
    times = np.empty(raw, dtype=np.float64)
    durations = np.empty(raw, dtype=np.float64)
    cursor = 0
    for history in histories:
        for record in history.records:
            times[cursor] = record.upload.event_time
            durations[cursor] = record.upload.duration
            cursor += 1
    return deflate_groups_arrays(times, durations, time_quantum), raw


def deflate_groups_arrays(
    times: "np.ndarray", durations: "np.ndarray", time_quantum: float = 1.0
) -> float:
    """Count distinct ``(quantized time, rounded duration)`` signatures.

    This is the single definition of a group signature: every caller —
    the scalar spec and the columnar kernel alike — must quantize
    through here, so re-partitioning the stores can never change
    which interactions collapse into one group (the merge-determinism
    contract of ``docs/SCALING.md``).
    """
    if times.size == 0:
        return 0.0
    signatures = np.column_stack(group_signatures(times, durations, time_quantum))
    return float(np.unique(signatures, axis=0).shape[0])


def group_signatures(
    times: "np.ndarray", durations: "np.ndarray", time_quantum: float = 1.0
) -> tuple["np.ndarray", "np.ndarray"]:
    """Each interaction's group signature: ``(quantized time, rounded
    duration)``, element by element, so any subset of records quantizes
    to the same values it does inside the whole."""
    return np.round(times / time_quantum), np.round(durations, 3)


def influence_weight(n_interactions: int, maturity_interactions: int = 3) -> float:
    """How much one anonymous history's opinion counts (Section 4.3).

    Grows linearly with the history's interaction count and saturates at 1
    once the history reaches ``maturity_interactions`` — a two-visit sybil
    history carries 2/3 of a vote, an established customer exactly one.
    """
    if maturity_interactions < 1:
        raise ValueError("maturity must be >= 1")
    if n_interactions < 0:
        raise ValueError("interaction count must be non-negative")
    return min(1.0, n_interactions / maturity_interactions)


def summarize_entity(
    entity_id: str,
    histories: list[InteractionHistory],
    inferred: list[OpinionUpload],
    explicit_ratings: list[float],
    group_time_quantum: float = 1.0,
    maturity_interactions: int = 3,
) -> EntityOpinionSummary:
    """Build the full opinion summary for one entity.

    ``histories`` must already be fraud-filtered; ``inferred`` are the
    opinion uploads whose ``history_id`` survived filtering.  Each kept
    opinion is weighted by its history's :func:`influence_weight`, so thin
    histories (including sybil micro-histories) move the mean less.
    """
    depth_by_id = {history.history_id: history.n_interactions for history in histories}
    kept: list[tuple[float, float]] = []  # (rating, weight)
    for upload in inferred:
        depth = depth_by_id.get(upload.history_id)
        if depth is None:
            continue
        kept.append((upload.rating, influence_weight(depth, maturity_interactions)))
    raw = sum(len(history.records) for history in histories)
    times = np.empty(raw, dtype=np.float64)
    durations = np.empty(raw, dtype=np.float64)
    cursor = 0
    for history in histories:
        for record in history.records:
            times[cursor] = record.upload.event_time
            durations[cursor] = record.upload.duration
            cursor += 1
    return summarize_entity_from_parts(
        entity_id=entity_id,
        n_histories=len(histories),
        raw_interactions=raw,
        effective_interactions=(
            deflate_groups_arrays(times, durations, group_time_quantum) if raw else 0.0
        ),
        kept=kept,
        explicit_ratings=explicit_ratings,
    )


def summarize_entity_from_parts(
    entity_id: str,
    n_histories: int,
    raw_interactions: int,
    effective_interactions: float,
    kept: list[tuple[float, float]],
    explicit_ratings: list[float],
) -> EntityOpinionSummary:
    """Assemble a summary from pre-extracted parts.

    This is the single definition of the summary math.
    :func:`summarize_entity` extracts the parts from history/opinion
    objects; the maintenance cycle
    (:func:`repro.scale.kernel.summarize_block`) takes them from an
    entity's frame block and its folded group signatures — both funnel
    through here, so the spec and the kernel cannot drift apart.
    ``effective_interactions`` is the number of distinct group
    signatures among the kept histories' raw records
    (:func:`deflate_groups_arrays`).  ``kept`` must be the
    ``(rating, weight)`` pairs in canonical (history-id-sorted) order:
    the weight sum and ``np.average`` are order-dependent float
    reductions, and this ordering is the contract that makes them a pure
    function of store content (docs/SCALING.md).
    """
    kept_ratings = [rating for rating, _ in kept]
    weight_sum = sum(weight for _, weight in kept)
    inferred_mean = (
        float(np.average([r for r, _ in kept], weights=[w for _, w in kept]))
        if kept and weight_sum > 0
        else (float(np.mean(kept_ratings)) if kept_ratings else None)
    )
    return EntityOpinionSummary(
        entity_id=entity_id,
        n_explicit_reviews=len(explicit_ratings),
        explicit_mean=float(np.mean(explicit_ratings)) if explicit_ratings else None,
        explicit_histogram=rating_histogram(explicit_ratings),
        n_inferred_opinions=len(kept_ratings),
        inferred_mean=inferred_mean,
        inferred_histogram=rating_histogram(kept_ratings),
        n_interacting_users=n_histories,
        effective_interactions=effective_interactions,
        raw_interactions=raw_interactions,
        inferred_weight=weight_sum,
    )
