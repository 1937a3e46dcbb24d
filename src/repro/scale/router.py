"""Stable shard routing on the unlinkable record key.

A record is routed by a prefix of the SHA-256 of its ``hash(Ru, e)``
record identifier — the very identifier the store already keys on.  The
router therefore learns nothing an unsharded server does not already
know: the shard index is a public function of an identifier that is
itself unlinkable (docs/SCALING.md walks through why this cannot weaken
unlinkability).

Routing must be *stable*: the same key maps to the same shard in every
process, on every run, forever — a record, its retransmissions and its
opinion land together, and a restarted server agrees with the one it
replaced on every placement.  That is why the route goes through
:func:`repro.util.hashing.stable_u64` (process-salt-free SHA-256) and
never through builtin ``hash``.

Routing must also be *elastic*: the shard count changes while the
deployment is live.  Modulo routing (``u64 % n_shards``) remaps nearly
every key when ``n`` changes, so this router assigns shards by
**bit-prefix of the 64-bit key** instead.  Each shard owns a set of
``(value, depth)`` prefixes — the keys whose top ``depth`` bits equal
``value`` — and together the prefixes of all shards tile the key space
exactly once.  Splitting shard *i* extends one of its prefixes by one
bit: shard *i* keeps the ``0`` extension, the new shard takes the ``1``
extension, and **only keys inside that prefix move**.  Merging two
shards unions their prefix sets, so any pair may merge (multi-prefix
shards keep merge closed under arbitrary schedules).

The *canonical* table for ``n`` shards is defined recursively —
``canonical(1)`` is one shard owning the whole space, and
``canonical(n+1)`` is ``canonical(n)`` with its shallowest (then
lowest-valued) prefix split.  The recursion makes a deployment grown by
splits byte-identical in routing to one started at the final size, which
is what the resharding differential tests pin.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from repro.util.hashing import stable_u64

#: Domain-separation label so shard routing never collides with any other
#: consumer of the stable-hash namespace.
_ROUTE_LABEL = "scale/shard-route"

#: Record identifiers are exactly 64 *lowercase* hex digits.  ``int(x, 16)``
#: alone is too permissive — it accepts ``"+fff…"``, ``" fff…"`` and
#: uppercase — and those near-misses must take the ``stable_u64`` path,
#: not the record-id fast path (see tests/scale/test_router_properties.py).
_RECORD_ID = re.compile(r"[0-9a-f]{64}\Z")

#: Prefixes: per shard, a tuple of ``(value, depth)`` pairs.
Prefix = tuple[int, int]
RouterSpec = tuple[tuple[Prefix, ...], ...]

#: Deepest splittable prefix.  64-bit keys stop being distinguishable at
#: depth 64; stopping well short keeps the arithmetic obviously safe.
MAX_DEPTH = 62

_SPACE = 1 << 64


def _canonical_spec(n_shards: int) -> RouterSpec:
    """The canonical prefix table for ``n_shards``, built by repeated splits.

    Defined recursively rather than in closed form so that
    ``canonical(n).split(...) == canonical(n + 1)`` holds *exactly* — a
    closed-form top-bits table disagrees with the split-grown one at
    power-of-two boundaries.
    """
    shards: list[list[Prefix]] = [[(0, 0)]]
    for _ in range(n_shards - 1):
        index = _shallowest_shard(shards)
        value, depth = min(shards[index], key=_prefix_order)
        remaining = [p for p in shards[index] if p != (value, depth)]
        remaining.append((value << 1, depth + 1))
        remaining.sort(key=_prefix_order)
        shards[index] = remaining
        shards.append([((value << 1) | 1, depth + 1)])
    return tuple(tuple(prefixes) for prefixes in shards)


def _prefix_order(prefix: Prefix) -> tuple[int, int]:
    value, depth = prefix
    return (depth, value)


def _shallowest_shard(shards: list[list[Prefix]]) -> int:
    """Index of the shard holding the (min depth, then min value) prefix."""
    best_index = 0
    best = min(shards[0], key=_prefix_order)
    for index in range(1, len(shards)):
        candidate = min(shards[index], key=_prefix_order)
        if _prefix_order(candidate) < _prefix_order(best):
            best, best_index = candidate, index
    return best_index


def _coalesce(prefixes: list[Prefix]) -> tuple[Prefix, ...]:
    """Join buddy pairs ``(v, d)``/``(v^1, d)`` to fixpoint.

    Keeps merged shards' prefix sets minimal, so split-then-merge is the
    identity on the routing table (not merely on the key → shard map).
    """
    current = set(prefixes)
    changed = True
    while changed:
        changed = False
        for value, depth in sorted(current, key=_prefix_order, reverse=True):
            if depth == 0:
                continue
            buddy = (value ^ 1, depth)
            if (value, depth) in current and buddy in current:
                current.discard((value, depth))
                current.discard(buddy)
                current.add((value >> 1, depth - 1))
                changed = True
    return tuple(sorted(current, key=_prefix_order))


def spec_to_json(spec: RouterSpec) -> list:
    """A router spec as nested lists (JSON has no tuples): the
    ``resulting`` table a reshard record and a snapshot carry."""
    return [[[int(v), int(d)] for v, d in prefixes] for prefixes in spec]


def spec_from_json(raw) -> RouterSpec:
    """The inverse of :func:`spec_to_json`: hashable nested tuples, the
    form :meth:`ShardRouter.spec` returns."""
    return tuple(
        tuple((int(v), int(d)) for v, d in prefixes) for prefixes in raw
    )


class ShardRouter:
    """Maps string keys (record ids, entity ids) to shards.

    ``ShardRouter(n)`` builds the canonical table for ``n`` shards;
    :meth:`from_spec` rebuilds an arbitrary (validated) table, which is
    how :meth:`split` and :meth:`merge` build their results.  Routers are
    immutable — :meth:`split` and :meth:`merge` return new routers, and
    the server swaps its reference atomically between batches.
    """

    __slots__ = ("n_shards", "_prefixes", "_starts", "_owners")

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self._install(_canonical_spec(int(n_shards)))

    @classmethod
    def from_spec(cls, spec: RouterSpec) -> "ShardRouter":
        """A router over an explicit prefix table (validated for tiling)."""
        router = cls.__new__(cls)
        router._install(spec_from_json(spec))
        return router

    def _install(self, spec: RouterSpec) -> None:
        if not spec:
            raise ValueError("need at least one shard")
        intervals: list[tuple[int, int, int]] = []
        for owner, prefixes in enumerate(spec):
            if not prefixes:
                raise ValueError(f"shard {owner} owns no prefixes")
            for value, depth in prefixes:
                if not 0 <= depth <= MAX_DEPTH:
                    raise ValueError(f"prefix depth {depth} out of range")
                if not 0 <= value < (1 << depth) or (depth == 0 and value != 0):
                    raise ValueError(f"prefix value {value} too wide for depth {depth}")
                start = value << (64 - depth)
                intervals.append((start, start + (_SPACE >> depth), owner))
        intervals.sort()
        cursor = 0
        for start, end, _ in intervals:
            if start != cursor:
                raise ValueError("prefixes do not tile the key space")
            cursor = end
        if cursor != _SPACE:
            raise ValueError("prefixes do not cover the key space")
        self._prefixes = spec
        self.n_shards = len(spec)
        self._starts = [start for start, _, _ in intervals]
        self._owners = [owner for _, _, owner in intervals]
        if self.n_shards == 1 and type(self) is ShardRouter:
            # One shard owns the whole key space.  Deciding that here, once
            # per table, keeps every multi-shard route free of a per-call
            # branch.
            self.__class__ = _WholeSpaceRouter

    # ------------------------------------------------------------ routing

    def shard_of(self, key: str) -> int:
        """Shard index for a string key (record id or entity id).

        Record identifiers are already 64-hex-digit SHA-256 outputs —
        uniformly distributed by construction — so their leading 64 bits
        route directly, without hashing a hash.  Any other string key
        (entity ids, arbitrary test keys) takes the ``stable_u64`` path.
        Both branches are pure functions of the key, so routing stays
        stable across processes and runs.
        """
        if len(key) == 64 and _RECORD_ID.match(key) is not None:
            return self.shard_of_u64(int(key[:16], 16))
        return self.shard_of_u64(stable_u64(_ROUTE_LABEL, key))

    def shard_of_u64(self, key: int) -> int:
        """Shard owning the prefix that contains the 64-bit ``key``."""
        return self._owners[bisect_right(self._starts, key & (_SPACE - 1)) - 1]

    # --------------------------------------------------------- topology

    def spec(self) -> RouterSpec:
        """The full prefix table, per shard — hashable and JSON-friendly."""
        return self._prefixes

    def prefixes_of(self, index: int) -> tuple[Prefix, ...]:
        return self._prefixes[index]

    def split(self, index: int) -> "ShardRouter":
        """Extend shard ``index``'s shallowest prefix by one bit.

        Shard ``index`` keeps the ``0`` extension; the appended shard
        ``n_shards`` owns the ``1`` extension.  Every key outside the
        split prefix keeps its assignment.
        """
        if not 0 <= index < self.n_shards:
            raise ValueError(f"no shard {index} to split")
        value, depth = min(self._prefixes[index], key=_prefix_order)
        if depth >= MAX_DEPTH:
            raise ValueError(f"shard {index} is at maximum prefix depth")
        kept = tuple(
            sorted(
                [p for p in self._prefixes[index] if p != (value, depth)]
                + [(value << 1, depth + 1)],
                key=_prefix_order,
            )
        )
        spec = list(self._prefixes)
        spec[index] = kept
        spec.append((((value << 1) | 1, depth + 1),))
        return ShardRouter.from_spec(tuple(spec))

    def merge(self, a: int, b: int) -> "ShardRouter":
        """Union shard ``b``'s prefixes into shard ``a`` and drop ``b``.

        Shards above ``b`` renumber down by one, matching the server's
        state migration.  Works for *any* pair — adjacency in the prefix
        tree is not required because shards may own several prefixes.
        """
        if a == b:
            raise ValueError("cannot merge a shard with itself")
        for index in (a, b):
            if not 0 <= index < self.n_shards:
                raise ValueError(f"no shard {index} to merge")
        if self.n_shards == 1:  # pragma: no cover - unreachable (a == b)
            raise ValueError("cannot merge the last shard")
        merged = _coalesce(list(self._prefixes[a]) + list(self._prefixes[b]))
        spec = [
            merged if index == a else prefixes
            for index, prefixes in enumerate(self._prefixes)
            if index != b
        ]
        return ShardRouter.from_spec(tuple(spec))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardRouter):
            return NotImplemented
        return self._prefixes == other._prefixes

    def __hash__(self) -> int:
        return hash(self._prefixes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(n_shards={self.n_shards}, spec={self._prefixes!r})"


class _WholeSpaceRouter(ShardRouter):
    """A one-shard table: every key routes to shard 0 without being read."""

    __slots__ = ()

    def shard_of(self, key: str) -> int:
        return 0

    def shard_of_u64(self, key: int) -> int:
        return 0
