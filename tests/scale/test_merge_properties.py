"""Property tests for the order-independent merges of ``repro.scale.merge``.

Hand-rolled generators over ``repro.util.rng``.  Counter merges are
exact integer sums, so associativity and commutativity are asserted as
*equality*.  Percentile-consuming merges (:func:`merge_pools`) are
exercised with arbitrary floats, because their contract is
permutation-invariance of the downstream *profiles*, which only needs
the multiset to survive.
"""

import numpy as np

from repro.fraud.profiles import ProfilePools, profiles_from_pools
from repro.scale.merge import merge_counts, merge_pools
from repro.util.rng import make_rng


def random_counts(rng, kinds=("restaurant", "dentist", "gym")):
    return {
        kind: int(rng.integers(0, 100))
        for kind in kinds
        if rng.integers(0, 2)
    }


class TestMergeCounts:
    def test_commutative_and_associative(self):
        rng = make_rng(9, "scale/test/counts")
        for _ in range(100):
            a, b, c = (random_counts(rng) for _ in range(3))
            assert merge_counts(a, b) == merge_counts(b, a)
            assert merge_counts(merge_counts(a, b), c) == merge_counts(
                a, merge_counts(b, c)
            )

    def test_emitted_in_sorted_key_order(self):
        merged = merge_counts({"z": 1}, {"a": 2, "m": 3})
        assert list(merged) == ["a", "m", "z"]


def random_pools(rng, kinds=("restaurant", "dentist")):
    pools = ProfilePools()
    for kind in kinds:
        n = int(rng.integers(0, 6))
        if n == 0:
            continue
        pools.n_histories[kind] = n
        pools.counts[kind] = [float(rng.integers(1, 20)) for _ in range(n)]
        pools.durations[kind] = list(rng.uniform(60.0, 7200.0, size=3 * n))
        if rng.integers(0, 2):
            pools.gaps[kind] = np.asarray(
                rng.uniform(3600.0, 10 * 86400.0, size=2 * n), dtype=np.float64
            )
    return pools


class TestMergePools:
    def test_concatenation_preserves_multisets(self):
        rng = make_rng(10, "scale/test/pools-multiset")
        parts = [random_pools(rng) for _ in range(4)]
        merged = merge_pools(parts)
        for field in ("gaps", "durations", "counts"):
            expected: dict[str, list[float]] = {}
            for pools in parts:
                for kind, values in getattr(pools, field).items():
                    expected.setdefault(kind, []).extend(float(v) for v in values)
            got = getattr(merged, field)
            assert set(got) == {k for k, v in expected.items() if v}
            for kind in got:
                assert sorted(float(v) for v in got[kind]) == sorted(expected[kind])

    def test_profiles_invariant_under_input_permutation(self):
        """The whole point of the mergeable intermediate: whatever order
        shards report in, the global profiles are identical."""
        rng = make_rng(11, "scale/test/pools-perm")
        for trial in range(10):
            parts = [random_pools(rng) for _ in range(5)]
            reference = profiles_from_pools(merge_pools(parts))
            perm_rng = make_rng(12, f"scale/test/pools-perm[{trial}]")
            order = perm_rng.permutation(len(parts))
            permuted = profiles_from_pools(
                merge_pools([parts[int(i)] for i in order])
            )
            assert permuted == reference

    def test_histories_counter_sums(self):
        rng = make_rng(13, "scale/test/pools-counts")
        parts = [random_pools(rng) for _ in range(3)]
        merged = merge_pools(parts)
        for kind in merged.n_histories:
            assert merged.n_histories[kind] == sum(
                p.n_histories.get(kind, 0) for p in parts
            )
