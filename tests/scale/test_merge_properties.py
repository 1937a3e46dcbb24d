"""Property tests for the order-independent pooling of ``KindPool``.

Maintenance keeps one :class:`~repro.scale.kernel.KindPool` per kind and
swaps per-entity :class:`ProfilePools` fragments in and out of it.  The
pooled state must not depend on the order, or the grouping, in which
fragments arrive.  Hand-rolled generators over ``repro.util.rng``.
History counts are exact integer sums, so commutativity and
associativity are asserted as *equality*.  Pooled values are arbitrary
floats, because the contract is permutation-invariance of the downstream
*profiles*, which only needs the multiset to survive.
"""

import numpy as np

from repro.fraud.profiles import ProfilePools, profiles_from_pools
from repro.scale.kernel import KindPool
from repro.util.rng import make_rng

KINDS = ("restaurant", "dentist", "gym")


def random_pools(rng, kinds=("restaurant", "dentist")):
    """One entity's fragment: ``n`` histories of a kind pool ``n`` counts."""
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


def pool_in_rounds(parts, rounds, kinds=KINDS, stale=None):
    """Swap ``parts`` (entity id -> fragment) into one pool per kind,
    one ``replace`` per round of entity ids, and return the pools.
    ``stale`` fragments, if given, are swapped in first, one entity per
    cycle, so that every later round replaces slots already filled."""
    pools = {kind: KindPool(kind) for kind in kinds}
    for entity_id, fragment in (stale or {}).items():
        for pool in pools.values():
            pool.replace({entity_id: fragment})
    for round_ids in rounds:
        for pool in pools.values():
            pool.replace({entity_id: parts[entity_id] for entity_id in round_ids})
    return pools


def n_histories(pools):
    return {kind: pool.n_histories for kind, pool in pools.items() if pool.n_histories}


def profiles(pools):
    merged = ProfilePools()
    for kind, pool in pools.items():
        if not pool.n_histories:
            continue
        one_kind = pool.pools()
        for name in ("gaps", "durations", "counts", "n_histories"):
            getattr(merged, name).update(getattr(one_kind, name))
    return profiles_from_pools(merged)


class TestMergeCounts:
    def test_commutative_and_associative(self):
        """Each kind's history count is the same whichever order the
        fragments are swapped in and however they are grouped into
        cycles."""
        rng = make_rng(9, "scale/test/counts")
        for _ in range(100):
            parts = {
                entity_id: random_pools(rng, kinds=KINDS) for entity_id in ("a", "b", "c")
            }
            stale = {
                entity_id: random_pools(rng, kinds=KINDS) for entity_id in ("c", "a", "b")
            }
            ab_c = n_histories(pool_in_rounds(parts, [("a", "b"), ("c",)]))
            ba_c = n_histories(pool_in_rounds(parts, [("b",), ("a",), ("c",)]))
            a_bc = n_histories(pool_in_rounds(parts, [("a",), ("b", "c")], stale=stale))
            c_b_a = n_histories(pool_in_rounds(parts, [("c",), ("b",), ("a",)], stale=stale))
            assert ab_c == ba_c == a_bc == c_b_a


class TestMergePools:
    def test_concatenation_preserves_multisets(self):
        rng = make_rng(10, "scale/test/pools-multiset")
        parts = {f"e{i}": random_pools(rng) for i in range(4)}
        pools = pool_in_rounds(parts, [tuple(parts)])
        for field in ("gaps", "durations", "counts"):
            expected: dict[str, list[float]] = {}
            for part in parts.values():
                for kind, values in getattr(part, field).items():
                    expected.setdefault(kind, []).extend(float(v) for v in values)
            got = {
                kind: pool.values[field] for kind, pool in pools.items() if pool.values[field].size
            }
            assert set(got) == {k for k, v in expected.items() if v}
            for kind in got:
                assert sorted(float(v) for v in got[kind]) == sorted(expected[kind])

    def test_profiles_invariant_under_input_permutation(self):
        """Whatever order the fragments are swapped in, one cycle at a
        time, and over whatever stale fragments, the profiles equal those
        of pooling them all at once."""
        rng = make_rng(11, "scale/test/pools-perm")
        for trial in range(10):
            parts = {f"e{i}": random_pools(rng) for i in range(5)}
            reference = profiles(pool_in_rounds(parts, [tuple(parts)]))
            perm_rng = make_rng(12, f"scale/test/pools-perm[{trial}]")
            order = [f"e{int(i)}" for i in perm_rng.permutation(len(parts))]
            permuted = profiles(pool_in_rounds(parts, [(entity_id,) for entity_id in order]))
            assert permuted == reference
            slots = [f"e{int(i)}" for i in perm_rng.permutation(len(parts))]
            stale = {entity_id: random_pools(rng) for entity_id in slots}
            swapped = profiles(
                pool_in_rounds(parts, [(entity_id,) for entity_id in order], stale=stale)
            )
            assert swapped == reference

    def test_histories_counter_sums(self):
        rng = make_rng(13, "scale/test/pools-counts")
        parts = {f"e{i}": random_pools(rng) for i in range(3)}
        pools = pool_in_rounds(parts, [tuple(parts)])
        for kind, pool in pools.items():
            assert pool.n_histories == sum(
                part.n_histories.get(kind, 0) for part in parts.values()
            )
