"""Summary-version result cache — warm reads that can never be stale.

Every entity has a monotone *summary version*, starting at 0 and bumped
each time the maintenance cycle reports the entity's summary may have
changed (the mode-invariant ``summarize_tracked`` set — see
``docs/SERVING.md`` for the coherence protocol).  A response depends on
nothing else: the Figure 3 panels are published by the same cycle, in
the same per-entity step as the summary, so they are versioned with it —
intake between cycles changes neither, and a warm read equals a fresh
recompute at every instant, not only right after a cycle.

A cached result stores the response together with a *fingerprint*: the
``(entity_id, version)`` pairs of its dependency set, which is the
query's full discrete-predicate candidate set
(:meth:`repro.serve.index.SummaryIndex.candidate_ids`) —
every entity whose summary could influence the response, including ones
currently ranked out or unsummarized.

Coherence is belt and braces:

* **eager eviction** — :meth:`invalidate` bumps the changed entities'
  versions and drops every dependent entry via a reverse map (this is
  what the ``rsp.serve.invalidations`` counter measures);
* **fingerprint check** — :meth:`get` re-validates the stored fingerprint
  against current versions, so even an invalidation that failed to drop a
  dependent entry (an incomplete reverse map) degrades to a cache miss,
  never to a stale read.

The fingerprint check is O(dependency set), which would dominate the hit
path on dense categories, so :meth:`get` takes a *generation* fast path:
every :meth:`invalidate` that bumps versions advances a cache-wide
generation counter, and an entry stamped with the current generation is
provably current — no version can have moved since it was stored (or
last revalidated).  Only entries from an older generation are compared
against current versions, and a comparison that passes re-stamps the
entry, so steady-state hits are O(1).

The reverse map is kept per *dependency group*, not per entity.  Many
queries share one dependency set — every query of one ``(category,
attribute)`` pair has the same candidate set, whatever its location —
so the cache interns each distinct set once, as a
:class:`DependencyGroup` holding the keys of the live entries built on
it.  The map then runs entity → interned groups → live keys: storing or
dropping an entry is one set operation on its group, not one per
dependency, and :meth:`invalidate` unions the key sets of the groups the
changed entities belong to.  Groups live as long as the cache (until
:meth:`clear`); their number is bounded by the distinct dependency sets
callers pass, which for the serving layer is the static catalog's
``(category, attribute)`` pairs.

Versions move only when the generation does, so a group's fingerprint
is one value per generation.  Each group caches it, built from the
per-entity versions with the generation it was built at
(:meth:`SummaryVersionCache._current`): every :meth:`put` on the group
within a generation shares that one tuple, and the revalidation in
:meth:`get` builds it at most once per group per generation, however
many of the group's entries are re-read.  The guard still reads the
per-entity versions, never the reverse map, so a lost reverse-map entry
still degrades to a miss.

``tests/serve/test_cache.py`` drives randomized intake + maintenance +
query schedules, re-reading cached queries after intake, and asserts a
cached read never differs from a fresh recompute.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any

Fingerprint = tuple[tuple[str, int], ...]


class DependencyGroup:
    """One interned dependency set, the keys of the live entries on it,
    and its fingerprint as of one cache generation."""

    __slots__ = ("members", "keys", "fingerprint", "generation")

    def __init__(self, members: tuple[str, ...]) -> None:
        #: The dependency ids, sorted and deduplicated.
        self.members = members
        self.keys: set[Hashable] = set()
        #: The members' ``(entity_id, version)`` pairs at ``generation``;
        #: ``generation`` starts below every cache generation, so the
        #: first use builds it.
        self.fingerprint: Fingerprint = ()
        self.generation = -1


@dataclass
class CachedResult:
    """One cache entry: the response plus the versions it was built from."""

    response: Any
    #: ``(entity_id, version)`` for every dependency, in id order.
    fingerprint: Fingerprint
    #: Cache generation at store (or last revalidation) time; an entry
    #: stamped with the current generation skips the fingerprint check.
    generation: int = 0
    #: The interned dependency set whose key set holds this entry's key.
    group: DependencyGroup | None = field(default=None, repr=False, compare=False)


@dataclass
class CacheStats:
    """Plain counters; the facade mirrors them into ``rsp.serve.*``."""

    hits: int = 0
    misses: int = 0
    #: Entries dropped by dirty-set notifications.
    invalidations: int = 0
    #: Entries dropped by the capacity bound.
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class SummaryVersionCache:
    """Result cache keyed by query, validated by per-entity summary versions."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: Advanced by every :meth:`invalidate` that bumps a version.
        self._generation = 0
        self._versions: dict[str, int] = {}
        #: Insertion-ordered for FIFO capacity eviction.
        self._entries: OrderedDict[Hashable, CachedResult] = OrderedDict()
        #: Dependency ids as passed (and as normalized) -> interned group.
        self._groups: dict[tuple[str, ...], DependencyGroup] = {}
        #: entity_id -> interned groups containing it.
        self._dependents: dict[str, list[DependencyGroup]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def version(self, entity_id: str) -> int:
        return self._versions.get(entity_id, 0)

    def fingerprint(self, dependency_ids: Iterable[str]) -> Fingerprint:
        """Current ``(entity_id, version)`` pairs for a dependency set.

        Deduplicated: callers may pass an id twice (e.g. a candidate list
        built from overlapping predicates), and a repeated pair would
        inflate the fingerprint and the revalidation check for no
        coherence benefit.
        """
        return self._stamp(tuple(sorted(set(dependency_ids))))

    def _stamp(self, members: tuple[str, ...]) -> Fingerprint:
        """:meth:`fingerprint` of ids already sorted and deduplicated."""
        return tuple(zip(members, map(self._versions.get, members, repeat(0))))

    def _current(self, group: DependencyGroup) -> Fingerprint:
        """``group``'s fingerprint now, built at most once per generation.

        No version moves without the generation advancing, so a
        fingerprint built in this generation is still exact.
        """
        if group.generation != self._generation:
            group.fingerprint = self._stamp(group.members)
            group.generation = self._generation
        return group.fingerprint

    def _intern(self, dependency_ids: Iterable[str]) -> DependencyGroup:
        """The one group for this dependency set, interned on first sight.

        Looked up by the ids as passed first, so a caller that hands over
        the same sorted tuple every time (``SummaryIndex.candidate_ids``)
        pays one dict probe and no normalization.
        """
        passed = tuple(dependency_ids)
        group = self._groups.get(passed)
        if group is None:
            members = tuple(sorted(set(passed)))
            group = self._groups.get(members)
            if group is None:
                group = self._groups[members] = DependencyGroup(members)
                for eid in members:
                    self._dependents.setdefault(eid, []).append(group)
            self._groups[passed] = group
        return group

    # ----------------------------------------------------------- lookups

    def get(self, key: Hashable) -> CachedResult | None:
        """The entry for ``key`` if present *and* still current."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.generation != self._generation:
            current = self._current(entry.group)
            if entry.fingerprint != current:
                # The invalidation that bumped these versions failed to
                # drop this entry; degrade to a miss, never a stale read.
                self._drop(key)
                self.stats.misses += 1
                return None
            entry.fingerprint = current
            entry.generation = self._generation
        self.stats.hits += 1
        return entry

    def put(self, key: Hashable, response: Any, dependency_ids: Iterable[str]) -> CachedResult:
        """Store ``response`` stamped with the dependencies' current versions."""
        if key in self._entries:
            self._drop(key)
        group = self._intern(dependency_ids)
        entry = CachedResult(
            response=response,
            fingerprint=self._current(group),
            generation=self._generation,
            group=group,
        )
        while len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            self._drop(oldest)
            self.stats.evictions += 1
        self._entries[key] = entry
        group.keys.add(key)
        return entry

    # ------------------------------------------------------ invalidation

    def invalidate(self, changed_ids: Iterable[str]) -> int:
        """Bump versions for ``changed_ids``; drop dependents.  Returns drops."""
        changed = set(changed_ids)
        if changed:
            self._generation += 1
        versions = self._versions
        groups: set[DependencyGroup] = set()
        for eid in changed:
            versions[eid] = versions.get(eid, 0) + 1
            groups.update(self._dependents.get(eid, ()))
        doomed = set().union(*(group.keys for group in groups))
        for key in doomed:
            self._drop(key)
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (versions survive — they are monotone forever).

        Cleared entries count as evictions: they were dropped by an
        operator action, not by staleness, and hit-rate telemetry would
        misreport the subsequent cold misses if the drops went uncounted.
        """
        self.stats.evictions += len(self._entries)
        self._entries.clear()
        self._groups.clear()
        self._dependents.clear()

    def _drop(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            entry.group.keys.discard(key)
