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
    counts = [history.n_interactions for history in histories]
    bucketed = []
    labels = []
    for lo, hi in VISIT_BUCKETS:
        labels.append(_bucket_label(lo, hi))
        bucketed.append(sum(1 for c in counts if lo <= c <= hi))
    return VisitsHistogram(
        entity_id=entity_id,
        labels=tuple(labels),
        counts=tuple(bucketed),
        n_users=len(counts),
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
    counts: list[int] = []
    distances: list[float] = []
    for history in histories:
        if history.n_interactions < min_visits:
            continue
        travels = [t for t in history.travel_kms() if t > 0]
        counts.append(history.n_interactions)
        distances.append(float(np.mean(travels)) if travels else 0.0)
    correlation = pearson(counts, distances) if len(counts) >= 2 else 0.0
    return DistanceVisitsSeries(
        entity_id=entity_id,
        visit_counts=tuple(counts),
        avg_distances_km=tuple(distances),
        correlation=correlation,
        n_users=len(counts),
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
