"""The serving layer's result cache — warm reads that can never be stale.

A response depends only on the summaries and Figure 3 panels the last
maintenance cycle published: both come out of the same per-entity step,
so intake between cycles changes neither, and a warm read equals a
fresh recompute at every instant, not only right after a cycle.  Each
cycle reports the entities whose summary may have changed (the
mode-invariant ``summarize_tracked`` set — see ``docs/SERVING.md`` for
the coherence protocol), and :meth:`SummaryVersionCache.invalidate`
drops every entry that depends on one of them.  That eager eviction is
the cache's one coherence mechanism: an entry present is current.

An entry's dependency set is the query's full discrete-predicate
candidate set (:meth:`repro.serve.index.SummaryIndex.candidate_ids`) —
every entity whose summary could influence the response, including ones
currently ranked out or unsummarized.

The reverse map is kept per *dependency group*, not per entity.  Many
queries share one dependency set — every query of one ``(category,
attribute)`` pair has the same candidate set, whatever its location —
so the cache interns each distinct set once, as a
:class:`DependencyGroup` holding the keys of the live entries built on
it.  The map then runs entity → interned groups → live keys: storing or
dropping an entry is one set operation on its group, not one per
dependency, and :meth:`~SummaryVersionCache.invalidate` unions the key
sets of the groups the changed entities belong to.  Groups live as long
as the cache; their number is bounded by the distinct dependency sets
callers pass, which for the serving layer is the static catalog's
``(category, attribute)`` pairs.

``tests/serve/test_cache.py`` checks the cache step by step against a
reference model that scans every entry on invalidation, and drives
randomized intake + maintenance + query schedules, re-reading cached
queries after intake, asserting a cached read never differs from a
fresh recompute.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import Any


class DependencyGroup:
    """The keys of the live entries on one interned dependency set."""

    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: set[Hashable] = set()


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
    """Result cache keyed by query, kept current with the published
    summaries by evicting every entry a changed entity can reach.

    ``bench/layers.py`` traces :meth:`put` under this class name.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: key -> (response, group); insertion-ordered for FIFO capacity
        #: eviction.
        self._entries: OrderedDict[Hashable, tuple[Any, DependencyGroup]] = OrderedDict()
        #: Dependency ids as passed (and sorted, deduplicated) -> interned
        #: group.
        self._groups: dict[tuple[str, ...], DependencyGroup] = {}
        #: entity_id -> interned groups containing it.
        self._dependents: dict[str, list[DependencyGroup]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _intern(self, dependency_ids: Iterable[str]) -> DependencyGroup:
        """The one group for this dependency set, interned on first sight.

        Looked up by the ids as passed first, so a caller that hands over
        the same sorted tuple every time (``SummaryIndex.candidate_ids``)
        pays one dict probe and no normalization.  Repeated ids collapse,
        so a list with duplicates interns to the group of its set.
        """
        passed = tuple(dependency_ids)
        group = self._groups.get(passed)
        if group is None:
            members = tuple(sorted(set(passed)))
            group = self._groups.get(members)
            if group is None:
                group = self._groups[members] = DependencyGroup()
                for eid in members:
                    self._dependents.setdefault(eid, []).append(group)
            self._groups[passed] = group
        return group

    # ----------------------------------------------------------- lookups

    def get(self, key: Hashable) -> Any | None:
        """The cached response for ``key``, or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry[0]

    def put(self, key: Hashable, response: Any, dependency_ids: Iterable[str]) -> None:
        """Store ``response``, to be dropped when any dependency changes."""
        if key in self._entries:
            self._drop(key)
        group = self._intern(dependency_ids)
        while len(self._entries) >= self.max_entries:
            self._drop(next(iter(self._entries)))
            self.stats.evictions += 1
        self._entries[key] = (response, group)
        group.keys.add(key)

    # ------------------------------------------------------ invalidation

    def invalidate(self, changed_ids: Iterable[str]) -> int:
        """Drop every entry depending on ``changed_ids``.  Returns drops."""
        dependents = self._dependents
        groups: set[DependencyGroup] = set()
        for eid in changed_ids:
            groups.update(dependents.get(eid, ()))
        doomed = set().union(*(group.keys for group in groups))
        for key in doomed:
            self._drop(key)
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def _drop(self, key: Hashable) -> None:
        self._entries.pop(key)[1].keys.discard(key)
