"""Comparative visualizations — Section 4.1's second approach, Figure 3.

Instead of inferring individual opinions, "the aggregate statistics about
users' interactions with an entity can often be quite revealing".  From the
anonymous histories alone (each history = one anonymous user) this module
computes the two panels the paper sketches:

* :func:`visits_per_user_histogram` — Figure 3(a): how many users visited
  once, twice, three-to-five times, more — the repeat-patronage shape that
  separates dentist A from B and C;
* :func:`distance_vs_visits` — Figure 3(b): per anonymous user, (number of
  visits, average distance travelled), whose correlation separates earned
  loyalty (B) from captive convenience (C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.privacy.history_store import InteractionHistory
from repro.util.ascii_plot import render_histogram
from repro.util.stats import pearson


#: Figure 3(a) bucket edges for visits-per-user.
VISIT_BUCKETS: tuple[tuple[int, float], ...] = (
    (1, 1),
    (2, 2),
    (3, 5),
    (6, 10),
    (11, float("inf")),
)


def _bucket_label(lo: int, hi: float) -> str:
    if hi == float("inf"):
        return f"{lo}+"
    if lo == hi:
        return str(lo)
    return f"{lo}-{int(hi)}"


VISIT_LABELS = tuple(_bucket_label(lo, hi) for lo, hi in VISIT_BUCKETS)


@dataclass(frozen=True)
class VisitsHistogram:
    """Figure 3(a) for one entity."""

    entity_id: str
    labels: tuple[str, ...]
    counts: tuple[int, ...]
    n_users: int

    @property
    def repeat_fraction(self) -> float:
        """Fraction of users with more than one visit."""
        if self.n_users == 0:
            return 0.0
        return 1.0 - self.counts[0] / self.n_users

    def render(self) -> str:
        return render_histogram(
            list(self.labels),
            list(self.counts),
            title=f"Visits per user — {self.entity_id}",
        )


def visits_per_user_histogram(
    entity_id: str, histories: list[InteractionHistory]
) -> VisitsHistogram:
    """Histogram of per-anonymous-user visit counts (Figure 3(a))."""
    return visits_histogram_from_counts(
        entity_id, [history.n_interactions for history in histories]
    )


def visits_histogram_from_counts(
    entity_id: str, counts: "list[int] | np.ndarray"
) -> VisitsHistogram:
    """Figure 3(a) from each anonymous user's visit count."""
    # The buckets tile 1..inf and only the last is open, so every count
    # at or past its lower edge lands there; a count of 0 lands nowhere.
    top = VISIT_BUCKETS[-1][0]
    capped = np.minimum(np.asarray(counts, dtype=np.int64), top)
    per_count = np.bincount(capped, minlength=top + 1).tolist()
    return VisitsHistogram(
        entity_id=entity_id,
        labels=VISIT_LABELS,
        counts=tuple(
            sum(per_count[lo : int(min(hi, top)) + 1]) for lo, hi in VISIT_BUCKETS
        ),
        n_users=int(capped.size),
    )


@dataclass(frozen=True)
class DistanceVisitsSeries:
    """Figure 3(b) for one entity."""

    entity_id: str
    visit_counts: tuple[int, ...]
    avg_distances_km: tuple[float, ...]
    #: Pearson correlation over repeat users; the comparative statistic.
    correlation: float
    n_users: int

    def render(self) -> str:
        lines = [f"Avg distance vs visits — {self.entity_id} (r={self.correlation:+.2f})"]
        order = np.argsort(self.visit_counts)
        for index in order:
            v = self.visit_counts[index]
            d = self.avg_distances_km[index]
            lines.append(f"  {v:3d} visits | {'=' * min(60, int(d * 8))} {d:.1f} km")
        return "\n".join(lines)


def mean_positive_travel(travels: "list[float] | np.ndarray") -> float:
    """Average distance travelled to the entity, over the records that
    moved at all; 0.0 when none did."""
    travels = np.asarray(travels, dtype=np.float64)
    positive = travels[travels > 0]
    return float(np.mean(positive)) if positive.size else 0.0


def distance_vs_visits(
    entity_id: str,
    histories: list[InteractionHistory],
    min_visits: int = 2,
) -> DistanceVisitsSeries:
    """Per-user (visits, avg distance travelled) series (Figure 3(b)).

    Only repeat users enter the correlation: the RSP infers recommendations
    from *repeated* interaction (Section 3.1), and one-time visitors carry
    no repeat signal.
    """
    repeat = [history for history in histories if history.n_interactions >= min_visits]
    return distance_series_from_columns(
        entity_id,
        [history.n_interactions for history in repeat],
        [mean_positive_travel(history.travel_kms()) for history in repeat],
        min_visits,
    )


def distance_series_from_columns(
    entity_id: str,
    counts: "list[int] | np.ndarray",
    travel_means: "list[float] | np.ndarray",
    min_visits: int = 2,
) -> DistanceVisitsSeries:
    """Figure 3(b) from each anonymous user's visit count and
    :func:`mean_positive_travel`, in history order."""
    counts = np.asarray(counts, dtype=np.int64)
    repeat = counts >= min_visits
    visits = counts[repeat].tolist()
    distances = np.asarray(travel_means, dtype=np.float64)[repeat].tolist()
    correlation = pearson(visits, distances) if len(visits) >= 2 else 0.0
    return DistanceVisitsSeries(
        entity_id=entity_id,
        visit_counts=tuple(visits),
        avg_distances_km=tuple(distances),
        correlation=correlation,
        n_users=len(visits),
    )


@dataclass(frozen=True)
class ComparativeVisualization:
    """The side-by-side comparison the search interface attaches to results."""

    histograms: dict[str, VisitsHistogram]
    distance_series: dict[str, DistanceVisitsSeries]

    def render(self) -> str:
        parts = [h.render() for h in self.histograms.values()]
        parts += [s.render() for s in self.distance_series.values()]
        return "\n\n".join(parts)


#: Both Figure 3 panels of one entity: (a) visits per user, (b) distance vs visits.
EntityPanels = tuple[VisitsHistogram, DistanceVisitsSeries]


def entity_panels(
    entity_id: str, histories: list[InteractionHistory]
) -> EntityPanels:
    """Both Figure 3 panels for one entity."""
    return (
        visits_per_user_histogram(entity_id, histories),
        distance_vs_visits(entity_id, histories),
    )


def panels_from_columns(
    entity_id: str,
    counts: "list[int] | np.ndarray",
    travel_means: "list[float] | np.ndarray",
) -> EntityPanels:
    """Both Figure 3 panels from per-history columns, in history order:
    each history's interaction count and :func:`mean_positive_travel`."""
    return (
        visits_histogram_from_counts(entity_id, counts),
        distance_series_from_columns(entity_id, counts, travel_means),
    )


def compare_panels(panels: dict[str, EntityPanels]) -> ComparativeVisualization:
    """Lay per-entity panels side by side, in ``panels`` order."""
    return ComparativeVisualization(
        histograms={entity_id: pair[0] for entity_id, pair in panels.items()},
        distance_series={entity_id: pair[1] for entity_id, pair in panels.items()},
    )


def compare_entities(
    histories_by_entity: dict[str, list[InteractionHistory]],
) -> ComparativeVisualization:
    """Build both Figure 3 panels for a set of competing entities."""
    return compare_panels(
        {
            entity_id: entity_panels(entity_id, histories)
            for entity_id, histories in histories_by_entity.items()
        }
    )
