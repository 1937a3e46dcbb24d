"""Typical-user activity profiles, merged from anonymous histories.

Section 4.3's key observation: "the vast majority of users are not
malicious", so the anonymously stored per-(user, entity) histories can be
merged into a profile of how a *typical* user interacts with entities of a
given kind — how far apart the interactions fall, how long they last, how
many accumulate.  Nothing in this computation names a user; it only pools
feature values across histories, which is exactly the access the store's
update-only design permits.

Profiles are represented as percentile bands rather than parametric fits:
interaction gaps are multi-modal (a dentist history mixes 6-month cleanings
with next-day follow-ups) and the detector only needs calibrated extremes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from repro.privacy.history_store import HistoryStore, InteractionHistory


@dataclass(frozen=True)
class FeatureBand:
    """Percentile summary of one feature across the honest population."""

    p01: float
    p05: float
    median: float
    p95: float
    p99: float
    n_samples: int

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "FeatureBand":
        # Maintenance hands over float64 arrays; reuse them rather
        # than round-tripping through a 10^5-element Python list.  The
        # percentiles are identical either way (same multiset of floats).
        if isinstance(values, np.ndarray):
            array = np.asarray(values, dtype=np.float64)
        else:
            array = np.asarray(list(values), dtype=np.float64)
        if array.size == 0:
            raise ValueError("cannot build a band from no samples")
        # One call, one partition: each percentile is the same order
        # statistics and the same interpolation as a call of its own.
        p01, p05, median, p95, p99 = np.percentile(array, (1, 5, 50, 95, 99)).tolist()
        return cls(
            p01=p01,
            p05=p05,
            median=median,
            p95=p95,
            p99=p99,
            n_samples=int(array.size),
        )

    def below_floor(self, value: float) -> bool:
        """Is ``value`` beneath the 1st percentile of honest behaviour?"""
        return value < self.p01

    def above_ceiling(self, value: float) -> bool:
        """Is ``value`` beyond the 99th percentile of honest behaviour?"""
        return value > self.p99


@dataclass(frozen=True)
class TypicalProfile:
    """How typical users interact with entities of one kind.

    ``gaps`` — seconds between consecutive interactions in one history;
    ``durations`` — per-interaction durations;
    ``counts`` — interactions accumulated per history over the window.
    """

    kind_label: str
    gaps: FeatureBand
    durations: FeatureBand
    counts: FeatureBand
    n_histories: int


def _kind_of(entity_id: str, entity_kinds: dict[str, str]) -> str | None:
    return entity_kinds.get(entity_id)


@dataclass
class ProfilePools:
    """Per-kind feature-value pools, not yet reduced to percentile bands.

    This is the mergeable intermediate of profile building: pools from
    disjoint subsets of the store concatenate into the pools of the whole
    store, and every percentile taken from a pool depends only on the
    *multiset* of values (``np.percentile`` sorts its input), never on the
    order they were collected in.  That pair of facts is what lets
    maintenance cache one fragment per entity and roll a kind's
    fragments up into bit-identical global profiles, at any shard count.

    Values may be held as Python lists or as NumPy float64 arrays; both
    feed :class:`FeatureBand.from_values` identically.
    """

    gaps: dict[str, Sequence[float]] = field(default_factory=dict)
    durations: dict[str, Sequence[float]] = field(default_factory=dict)
    counts: dict[str, Sequence[float]] = field(default_factory=dict)
    n_histories: dict[str, int] = field(default_factory=dict)


def collect_profile_pools(
    histories: Iterable[InteractionHistory],
    entity_kinds: dict[str, str],
    min_history_length: int = 2,
) -> ProfilePools:
    """Pool the per-kind feature values of ``histories``.

    Histories shorter than ``min_history_length`` contribute counts but no
    gap statistics (they have none).
    """
    pools = ProfilePools()
    gaps: dict[str, list[float]] = pools.gaps
    durations: dict[str, list[float]] = pools.durations
    counts: dict[str, list[float]] = pools.counts
    for history in histories:
        kind = _kind_of(history.entity_id, entity_kinds)
        if kind is None:
            continue
        pools.n_histories[kind] = pools.n_histories.get(kind, 0) + 1
        counts.setdefault(kind, []).append(float(history.n_interactions))
        durations.setdefault(kind, []).extend(history.durations())
        if history.n_interactions >= min_history_length:
            gaps.setdefault(kind, []).extend(history.gaps())
    return pools


def profiles_from_pools(pools: ProfilePools) -> dict[str, TypicalProfile]:
    """Reduce pooled feature values to per-kind percentile profiles.

    A kind with no gap or duration samples yields no profile (its
    histories stay unjudged), mirroring the long-standing behaviour of
    :func:`build_profiles`.
    """
    profiles: dict[str, TypicalProfile] = {}
    for kind, n_histories in pools.n_histories.items():
        kind_gaps = pools.gaps.get(kind)
        kind_durations = pools.durations.get(kind)
        if kind_gaps is None or len(kind_gaps) == 0:
            continue
        if kind_durations is None or len(kind_durations) == 0:
            continue
        profiles[kind] = TypicalProfile(
            kind_label=kind,
            gaps=FeatureBand.from_values(kind_gaps),
            durations=FeatureBand.from_values(kind_durations),
            counts=FeatureBand.from_values(pools.counts[kind]),
            n_histories=n_histories,
        )
    return profiles


def build_profiles(
    store: HistoryStore,
    entity_kinds: dict[str, str],
    min_history_length: int = 2,
) -> dict[str, TypicalProfile]:
    """Merge every stored history into per-kind typical profiles.

    ``entity_kinds`` maps entity_id -> kind label (public catalog data).
    Composed from :func:`collect_profile_pools` and
    :func:`profiles_from_pools` so maintenance can run the collection
    phase per entity and the reduction once per kind.
    """
    pools = collect_profile_pools(
        store.all_histories(), entity_kinds, min_history_length
    )
    return profiles_from_pools(pools)
