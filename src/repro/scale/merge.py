"""Order-independent merges of per-shard maintenance state.

Everything a shard reports upward must merge into the global result in a
way that does not depend on which shard reported first: counter merges
are integer sums (associative, commutative, exact), pool merges are
multiset unions consumed only by sort-based reductions (percentiles),
and anything order-sensitive downstream (float means over opinion lists)
is re-canonicalized by sorting on ``history_id`` before the arithmetic
runs.  ``tests/scale/test_merge_properties.py`` checks associativity,
commutativity and permutation invariance with hand-rolled generators.
Resharding needs no merge: a history lives whole on its key's shard and
moves whole (``HistoryStore.adopt``/``release``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.fraud.profiles import ProfilePools


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
