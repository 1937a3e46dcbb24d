"""Property tests for :class:`repro.scale.router.ShardRouter`.

Hand-rolled generators over ``repro.util.rng`` (no third-party property
framework): each property is checked over a few hundred seeded random
keys.  The properties are the routing contract the sharded server's
correctness argument leans on:

* **totality** — every key routes, to an index in ``[0, n_shards)``;
* **stability** — routing is a pure function of the key: the same key
  routes identically on every call, from every router instance, and
  (because the route never touches builtin ``hash`` or process state)
  in every process;
* **co-location** — a record, its retransmissions, and its opinion all
  carry the same key, hence land on the same shard; identical nonces
  meet in the same nonce bucket;
* **rough balance** — uniformly random keys spread across shards.
"""

import hashlib

from repro.scale.router import ShardRouter
from repro.util.hashing import stable_u64
from repro.util.rng import make_rng

SHARD_COUNTS = (1, 2, 3, 8, 16)


def random_hex_keys(n, seed):
    """Realistic record identifiers: 64-hex-digit digests."""
    rng = make_rng(seed, "scale/test/hex-keys")
    return [
        hashlib.sha256(bytes(rng.bytes(16))).hexdigest() for _ in range(n)
    ]


def random_string_keys(n, seed):
    """Arbitrary short string keys (entity ids and the like)."""
    rng = make_rng(seed, "scale/test/str-keys")
    return [f"e{int(rng.integers(0, 10**9)):09d}" for _ in range(n)]


def random_byte_keys(n, seed, length=16):
    rng = make_rng(seed, "scale/test/byte-keys")
    return [bytes(rng.bytes(length)) for _ in range(n)]


class TestTotalityAndStability:
    def test_every_string_key_routes_in_range(self):
        keys = random_hex_keys(200, seed=1) + random_string_keys(200, seed=2)
        for n_shards in SHARD_COUNTS:
            router = ShardRouter(n_shards)
            for key in keys:
                assert 0 <= router.shard_of(key) < n_shards

    def test_every_bytes_key_routes_in_range(self):
        keys = (
            random_byte_keys(200, seed=3)
            + random_byte_keys(50, seed=4, length=4)  # short: stable_u64 path
            + [b""]
        )
        for n_shards in SHARD_COUNTS:
            router = ShardRouter(n_shards)
            for key in keys:
                assert 0 <= router.shard_of_bytes(key) < n_shards

    def test_routing_is_stable_across_instances_and_calls(self):
        keys = random_hex_keys(100, seed=5) + random_string_keys(100, seed=6)
        for n_shards in SHARD_COUNTS:
            first, second = ShardRouter(n_shards), ShardRouter(n_shards)
            for key in keys:
                route = first.shard_of(key)
                assert route == first.shard_of(key)
                assert route == second.shard_of(key)

    def test_one_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        for key in random_hex_keys(50, seed=7):
            assert router.shard_of(key) == 0
        for key in random_byte_keys(50, seed=8):
            assert router.shard_of_bytes(key) == 0

    def test_pinned_routes(self):
        """Golden pins: the routing function must never drift silently.

        The canonical 8-shard prefix table assigns the top three bits of
        the 64-bit key to shards ``[0, 4, 2, 5, 1, 6, 3, 7]`` (the order
        the recursive split construction yields them in).  Updating these
        pins is only legitimate for an intentional routing change, paired
        with a migration story.
        """
        owner_by_top3 = [0, 4, 2, 5, 1, 6, 3, 7]
        router = ShardRouter(8)
        record_key = hashlib.sha256(b"pinned").hexdigest()
        assert router.shard_of(record_key) == owner_by_top3[
            int(record_key[:16], 16) >> 61
        ]
        assert router.shard_of("entity-42") == owner_by_top3[
            stable_u64("scale/shard-route", "entity-42") >> 61
        ]
        assert router.shard_of_bytes(b"\x01" * 16) == owner_by_top3[
            int.from_bytes(b"\x01" * 8, "big") >> 61
        ]
        assert router.shard_of_bytes(b"ab") == owner_by_top3[
            stable_u64("scale/shard-route", b"ab") >> 61
        ]

    def test_hexlike_but_invalid_key_falls_back(self):
        """A 64-char key with non-hex characters takes the hash path."""
        key = "z" * 64
        for n_shards in SHARD_COUNTS:
            router = ShardRouter(n_shards)
            assert router.shard_of(key) == router.shard_of_u64(
                stable_u64("scale/shard-route", key)
            )

    def test_sign_space_and_case_variants_take_the_hash_path(self):
        """``int(key, 16)`` alone would accept these; the strict guard
        must not.  Regression pins for the hex fast-path tightening: each
        tricky key routes exactly where ``stable_u64`` sends it, and the
        uppercase twin of a genuine record id does *not* follow the
        record id itself."""
        router = ShardRouter(8)
        tricky = [
            "+" + "f" * 63,  # sign prefix, still 64 chars
            "-" + "f" * 63,
            " " + "f" * 63,  # whitespace prefix
            "f" * 63 + "\n",  # trailing whitespace
            "AB" * 32,  # uppercase hex
            hashlib.sha256(b"pinned").hexdigest().upper(),
            "_" + "f" * 63,  # underscore: int() accepts "f_f" grouping
        ]
        for key in tricky:
            assert len(key) == 64
            assert router.shard_of(key) == router.shard_of_u64(
                stable_u64("scale/shard-route", key)
            ), key
        record_key = hashlib.sha256(b"pinned").hexdigest()
        upper = record_key.upper()
        assert router.shard_of(upper) == router.shard_of_u64(
            stable_u64("scale/shard-route", upper)
        )
        assert router.shard_of(record_key) == router.shard_of_u64(
            int(record_key[:16], 16)
        )


class TestCoLocation:
    def test_retransmitted_nonce_meets_its_original(self):
        """A duplicate delivery carries the same nonce bytes, so both
        copies must probe the same nonce bucket."""
        router = ShardRouter(8)
        for nonce in random_byte_keys(200, seed=9):
            duplicate = bytes(nonce)  # fresh object, equal bytes
            assert router.shard_of_bytes(nonce) == router.shard_of_bytes(duplicate)

    def test_record_and_opinion_share_a_shard(self):
        """Interaction records and the inferred opinion for the same
        history carry the same ``hash(Ru, e)`` key."""
        router = ShardRouter(8)
        for key in random_hex_keys(200, seed=10):
            assert router.shard_of(key) == router.shard_of(str(key))

    def test_shard_counts_partition_independently(self):
        """Changing the shard count re-partitions but stays total — no key
        is ever orphaned by a resize."""
        keys = random_hex_keys(100, seed=11)
        for n_shards in SHARD_COUNTS:
            router = ShardRouter(n_shards)
            assert all(0 <= router.shard_of(k) < n_shards for k in keys)


class TestBalance:
    def test_hex_record_keys_spread(self):
        router = ShardRouter(8)
        keys = random_hex_keys(2000, seed=12)
        counts = [0] * 8
        for key in keys:
            counts[router.shard_of(key)] += 1
        # Expected 250 per shard; binomial std ~15, so [125, 375] is ~8 sigma.
        assert all(125 <= c <= 375 for c in counts), counts

    def test_nonce_keys_spread(self):
        router = ShardRouter(8)
        counts = [0] * 8
        for key in random_byte_keys(2000, seed=13):
            counts[router.shard_of_bytes(key)] += 1
        assert all(125 <= c <= 375 for c in counts), counts


class TestOneShard:
    """A one-shard table routes every key to shard 0 without reading it,
    and grows and shrinks like any other table."""

    def test_every_key_routes_to_the_only_shard(self):
        router = ShardRouter(1)
        for key in random_hex_keys(50, seed=5) + random_string_keys(50, seed=6):
            assert router.shard_of(key) == 0
            assert router.shard_of_bytes(key.encode()) == 0
        assert router.shard_of_u64(2**64 - 1) == 0

    def test_split_then_merge_round_trips_through_one_shard(self):
        one = ShardRouter(1)
        two = one.split(0)
        assert two == ShardRouter(2)
        keys = random_hex_keys(200, seed=7)
        assert {two.shard_of(key) for key in keys} == {0, 1}
        merged = two.merge(0, 1)
        assert merged == one and merged.spec() == one.spec()
        assert {merged.shard_of(key) for key in keys} == {0}
