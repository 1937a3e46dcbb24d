"""Order-independent merges of per-shard maintenance state.

Everything a shard reports upward must merge into the global result in a
way that does not depend on which shard reported first: counter merges
are integer sums (associative, commutative, exact), pool merges are
multiset unions consumed only by sort-based reductions (percentiles),
and anything order-sensitive downstream (float means over opinion lists)
is re-canonicalized by sorting on ``history_id`` before the arithmetic
runs.  ``tests/scale/test_merge_properties.py`` checks associativity and
commutativity with hand-rolled generators.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.fraud.profiles import ProfilePools
from repro.privacy.history_store import FoldedStats, InteractionHistory


def merge_folded(a: FoldedStats | None, b: FoldedStats | None) -> FoldedStats | None:
    """Merge two folded-tail summaries (min/max/sum semantics).

    Sums of non-negative floats are associative only up to rounding, but
    the folds a shard ever merges were accumulated record-by-record in
    arrival order on a single shard — cross-shard merges never split one
    history's fold, because a history lives entirely on its key's shard.
    This helper exists for re-sharding migrations (and the property
    suite, which exercises it with exactly-representable values).
    """
    if a is None or a.n == 0:
        return b
    if b is None or b.n == 0:
        return a
    return FoldedStats(
        n=a.n + b.n,
        earliest_event_time=min(a.earliest_event_time, b.earliest_event_time),
        latest_event_time=max(a.latest_event_time, b.latest_event_time),
        duration_sum=a.duration_sum + b.duration_sum,
        travel_sum=a.travel_sum + b.travel_sum,
    )


def merge_histories(a: InteractionHistory, b: InteractionHistory) -> InteractionHistory:
    """Merge two partial views of the *same* history into one.

    Records are re-ordered canonically (event time, then duration, then
    arrival time) so the merge is commutative: ``merge(a, b)`` equals
    ``merge(b, a)`` as a dataclass value.
    """
    if a.history_id != b.history_id:
        raise ValueError("cannot merge histories with different identifiers")
    if a.entity_id != b.entity_id:
        raise ValueError("one history identifier is bound to one entity")
    records = sorted(
        list(a.records) + list(b.records),
        key=lambda r: (r.upload.event_time, r.upload.duration, r.arrival_time),
    )
    return InteractionHistory(
        history_id=a.history_id,
        entity_id=a.entity_id,
        records=records,
        folded=merge_folded(a.folded, b.folded),
    )


def merge_counts(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    """Key-wise integer sum, emitted in sorted-key order."""
    merged: dict[str, int] = {}
    for key in sorted(set(a) | set(b)):
        merged[key] = a.get(key, 0) + b.get(key, 0)
    return merged


def merge_pools(pools_list: Sequence[ProfilePools]) -> ProfilePools:
    """Concatenate per-shard feature pools into one global pool set.

    The concatenation order follows ``pools_list`` (shard index order in
    the maintenance path), but every consumer reduces the pools with
    sort-based percentiles, so the *profiles* built from the merge are
    invariant under any permutation of the inputs — the property suite
    asserts exactly that.
    """
    merged = ProfilePools()
    buckets: dict[str, dict[str, list[np.ndarray]]] = {
        "gaps": {},
        "durations": {},
        "counts": {},
    }
    for pools in pools_list:
        for field_name, per_kind in (
            ("gaps", pools.gaps),
            ("durations", pools.durations),
            ("counts", pools.counts),
        ):
            for kind, values in per_kind.items():
                array = np.asarray(values, dtype=np.float64)
                if array.size:
                    buckets[field_name].setdefault(kind, []).append(array)
        merged.n_histories = merge_counts(merged.n_histories, pools.n_histories)
    for field_name, per_kind in buckets.items():
        target: dict[str, np.ndarray] = getattr(merged, field_name)
        for kind, arrays in per_kind.items():
            target[kind] = np.concatenate(arrays)
    return merged
