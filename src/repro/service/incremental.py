"""Incremental maintenance: dirty-entity tracking with exact recompute.

The maintenance cycle (fraud profiles → history filtering → opinion
summaries) is a pure function of store *content* — the canonical-order
discipline of :meth:`repro.service.server.RSPServer.run_maintenance`
makes it so.  That purity is what licenses incrementality: an entity
whose inputs did not change since the last cycle would recompute the
same accepted partition, the same verdicts, and the same summary, so the
cycle may skip it and keep the cached values — *byte-identical* output,
less work.  This module owns that bookkeeping.

The invalidation contract (see docs/SCALING.md "Incremental
maintenance"):

* **Intake dirtying** — every accepted interaction, opinion, or review
  marks its entity dirty.  An opinion additionally dirties the *owner*
  entity of its history slot (a new slot changes the owner's kept-opinion
  count) and, on a cross-entity overwrite, the previously claimed entity.
* **Profile-digest guard** — fraud profiles are rebuilt every cycle
  (per-kind pools are cached and rebuilt only for kinds with dirty
  entities, which is exact because store content changes only at dirty
  entities).  If the digest of a kind's profile — or of the
  :class:`~repro.fraud.detector.DetectorConfig` folded into every
  digest — changed since the previous cycle, every entity of that kind
  is conservatively re-dirtied, so verdicts can never go stale against a
  moved baseline.
* **Verdict-flip cascade** — re-judging a dirty entity may flip which of
  its histories survive.  A flipped history invalidates the summary of
  the entity its opinion slot *claims* (which need not be the owner), so
  the summarize set is ``dirty ∪ flipped-owners ∪ claimed(flipped)``.
* **Eviction** — an entity is re-summarized from its current parts; when
  every part is empty (e.g. its last history was rejected) the cached
  summary is deleted, exactly matching the key set a full recompute
  would produce.

Dirty sets are Python ``set``s and therefore iterate in hash order;
every loop below goes through ``sorted()`` before touching float math,
and the ``det-dirty-iteration`` lint rule holds the line.

The engine reads the stores only through a :class:`StoreView`, builds
the fraud profiles itself from cached per-entity fragments (or takes the
server's pooled profiles when the whole deployment recomputes), and
either re-judges the tracked entities (:meth:`execute`) or adopts a full
recompute from the server's columnar kernel (:meth:`adopt_full`).
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Protocol

from repro.core.aggregation import EntityOpinionSummary, OpinionUpload, summarize_entity
from repro.fraud.detector import DetectorConfig, FraudDetector, HistoryVerdict
from repro.fraud.profiles import (
    ProfilePools,
    TypicalProfile,
    collect_profile_pools,
    profiles_from_pools,
)
from repro.privacy.history_store import InteractionHistory


class StoreView(Protocol):
    """The read surface the engine computes from, across every shard."""

    def histories_for_entity(self, entity_id: str) -> list[InteractionHistory]: ...

    def opinion(self, history_id: str) -> OpinionUpload | None: ...

    def has_opinion(self, history_id: str) -> bool: ...

    def explicit_ratings(self, entity_id: str) -> list[float]: ...

    def entities_with_histories(self) -> set[str]: ...


def profile_digest(profile: TypicalProfile, config: DetectorConfig) -> str:
    """Digest of everything a verdict depends on besides the history itself.

    ``repr`` of the frozen dataclasses round-trips floats exactly, so two
    digests are equal iff the detector would judge identically.
    """
    payload = f"{profile!r}|{config!r}".encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass
class CyclePlan:
    """What one maintenance cycle must (at minimum) recompute."""

    dirty: set[str]
    profiles: dict[str, TypicalProfile]
    changed_kinds: set[str]
    redirtied: set[str]
    judge_tracked: set[str]
    n_entities: int
    prev_summary_keys: set[str]


@dataclass
class CycleStats:
    """Tracked work accounting for one cycle — identical across modes.

    All fields derive from *tracked* sets (what incrementality says must
    be recomputed), never from what a given mode actually executed, so
    the aggregate telemetry built from them is byte-identical between
    incremental and full recompute, at every shard count.
    """

    n_dirty: int = 0
    n_redirtied: int = 0
    n_judge_tracked: int = 0
    n_judge_cached: int = 0
    n_summarize_tracked: int = 0
    n_summarize_cached: int = 0


class MaintenanceEngine:
    """Caches maintenance state across cycles and recomputes only dirt.

    The engine owns the authoritative post-filter state: the accepted
    history partitions, the suspicious verdicts, the surviving-history
    set, per-owner kept-opinion counts, and the entity summaries.  The
    servers alias ``accepted`` and ``summaries`` directly (search reads
    them), so every update here mutates in place and never rebinds.
    """

    def __init__(
        self,
        view: StoreView,
        entity_kinds: dict[str, str],
        detector_config: DetectorConfig | None = None,
    ) -> None:
        self.view = view
        self.entity_kinds = entity_kinds
        self.config = detector_config or DetectorConfig()
        #: Entities touched by intake since the last cycle.
        self._dirty: set[str] = set()
        #: entity_id -> history ids whose opinion slot currently claims it
        #: (an opinion normally claims its owner entity, but the engine
        #: never assumes it).
        self._claims: dict[str, set[str]] = {}
        #: Post-filter state, keyed by entity (aliased by the servers).
        self.accepted: dict[str, list[InteractionHistory]] = {}
        self.summaries: dict[str, EntityOpinionSummary] = {}
        self.verdicts: dict[str, list[HistoryVerdict]] = {}
        self.kept: dict[str, int] = {}
        self._accepted_ids: dict[str, frozenset[str]] = {}
        self._surviving: set[str] = set()
        #: Per-entity feature-value fragments and the per-kind profiles
        #: they roll up into.
        self._fragments: dict[str, ProfilePools] = {}
        self._kind_profiles: dict[str, TypicalProfile | None] = {}
        self._profile_digests: dict[str, str] = {}
        #: Cycle listeners (the serving layer's cache-invalidation hook).
        self._listeners: list[Callable[[frozenset[str]], None]] = []

    def subscribe(self, listener: Callable[[frozenset[str]], None]) -> None:
        """Register a listener called after every cycle with the tracked
        summary-change set (``summarize_tracked`` — every entity whose
        summary *could* have changed, identically in incremental, full,
        and adopted-kernel modes).  This is the cache-coherence feed of
        :class:`repro.serve.cache.SummaryVersionCache`."""
        self._listeners.append(listener)

    def _notify(self, summarize_tracked: set[str]) -> None:
        changed = frozenset(summarize_tracked)
        for listener in self._listeners:
            listener(changed)

    # ------------------------------------------------------------- intake

    def mark_dirty(self, entity_id: str) -> None:
        self._dirty.add(entity_id)

    def note_opinion(
        self,
        existing: OpinionUpload | None,
        record: OpinionUpload,
        owner: str | None,
    ) -> None:
        """Track a slot write (call after the opinion dict was updated).

        ``owner`` is the entity the history is bound to (``None`` if the
        history is not stored yet).  A brand-new slot changes the owner's
        kept-opinion count, so the owner is dirtied too; a cross-entity
        overwrite moves the claim and dirties the abandoned entity.
        """
        self._dirty.add(record.entity_id)
        if existing is None:
            self._claims.setdefault(record.entity_id, set()).add(record.history_id)
            if owner is not None:
                self._dirty.add(owner)
        elif existing.entity_id != record.entity_id:
            old = self._claims.get(existing.entity_id)
            if old is not None:
                old.discard(record.history_id)
            self._claims.setdefault(record.entity_id, set()).add(record.history_id)
            self._dirty.add(existing.entity_id)

    # ----------------------------------------------------------- planning

    def plan(
        self,
        full: bool = False,
        pooled: Callable[[], dict[str, TypicalProfile]] | None = None,
    ) -> CyclePlan:
        """Drain the dirty set and decide what this cycle must recompute.

        The fraud profiles are rebuilt from per-entity fragments, only for
        the kinds that contain a dirty entity; ``full`` bypasses the
        fragment cache and recollects everything, the honest from-scratch
        baseline.  When at least half the entities are dirty (or
        ``full``), the cycle will recompute everything anyway, and
        ``pooled`` — the server's profiles pooled from its columnar
        frames, bitwise-equal to the fragment path — is used instead.
        """
        dirty = set(self._dirty)
        self._dirty.clear()
        for entity_id in sorted(dirty):
            self._fragments.pop(entity_id, None)
        entities = self.view.entities_with_histories()
        if pooled is not None and (
            full or 2 * len(dirty & entities) >= max(1, len(entities))
        ):
            profiles = pooled()
            self._kind_profiles = {
                kind: profiles.get(kind)
                for kind in sorted({self.entity_kinds.get(e) for e in entities} - {None})
            }
        else:
            profiles = self._build_profiles(dirty, entities, full=full)
        digests = {
            kind: profile_digest(profile, self.config)
            for kind, profile in sorted(profiles.items())
        }
        changed_kinds = {
            kind
            for kind in set(digests) | set(self._profile_digests)
            if digests.get(kind) != self._profile_digests.get(kind)
        }
        self._profile_digests = digests
        redirtied = {
            entity_id
            for entity_id in sorted(entities - dirty)
            if self.entity_kinds.get(entity_id) in changed_kinds
        }
        judge_tracked = (dirty | redirtied) & entities
        return CyclePlan(
            dirty=dirty,
            profiles=profiles,
            changed_kinds=changed_kinds,
            redirtied=redirtied,
            judge_tracked=judge_tracked,
            n_entities=len(entities),
            prev_summary_keys=set(self.summaries),
        )

    def _build_profiles(
        self, dirty: set[str], entities: set[str], full: bool
    ) -> dict[str, TypicalProfile]:
        """Per-kind profiles from cached per-entity feature fragments.

        Exactness: a kind's pooled values change only when one of its
        entities' histories changed, and every such entity is dirty — so
        a kind with no dirty entity reuses its cached profile, and the
        result is the same multiset of values :func:`build_profiles`
        would pool (``np.percentile`` sorts, so collection order never
        matters).
        """
        by_kind: dict[str, list[str]] = {}
        for entity_id in sorted(entities):
            kind = self.entity_kinds.get(entity_id)
            if kind is not None:
                by_kind.setdefault(kind, []).append(entity_id)
        dirty_kinds = {
            self.entity_kinds.get(entity_id) for entity_id in sorted(dirty)
        }
        for kind in sorted(by_kind):
            if not full and kind in self._kind_profiles and kind not in dirty_kinds:
                continue
            pool = ProfilePools()
            for entity_id in by_kind[kind]:
                fragment = self._fragments.get(entity_id)
                if fragment is None:
                    fragment = collect_profile_pools(
                        self.view.histories_for_entity(entity_id), self.entity_kinds
                    )
                    if not full:
                        self._fragments[entity_id] = fragment
                _extend_pool(pool, fragment, kind)
            built = profiles_from_pools(pool)
            self._kind_profiles[kind] = built.get(kind)
        # Kinds that lost their last entity keep a stale cache entry only
        # if they can never come back dirty; drop them for hygiene.
        for kind in sorted(set(self._kind_profiles) - set(by_kind)):
            del self._kind_profiles[kind]
        return {
            kind: profile
            for kind, profile in sorted(self._kind_profiles.items())
            if profile is not None
        }

    # ---------------------------------------------------------- execution

    def execute(self, plan: CyclePlan) -> CycleStats:
        """Re-judge and re-summarize exactly the plan's tracked entities."""
        detector = FraudDetector(plan.profiles, self.entity_kinds, self.config)
        flipped_owners: set[str] = set()
        flipped_ids: set[str] = set()
        for entity_id in sorted(plan.judge_tracked):
            histories = sorted(
                self.view.histories_for_entity(entity_id),
                key=lambda history: history.history_id,
            )
            new_accepted: list[InteractionHistory] = []
            new_verdicts: list[HistoryVerdict] = []
            for history in histories:
                verdict = detector.judge(history)
                if verdict.suspicious:
                    new_verdicts.append(verdict)
                else:
                    new_accepted.append(history)
            new_ids = frozenset(history.history_id for history in new_accepted)
            old_ids = self._accepted_ids.get(entity_id, frozenset())
            if new_ids != old_ids:
                flipped_owners.add(entity_id)
                flipped_ids |= new_ids ^ old_ids
            self._surviving.difference_update(old_ids)
            self._surviving.update(new_ids)
            _set_or_pop(self.accepted, entity_id, new_accepted)
            _set_or_pop(self._accepted_ids, entity_id, new_ids)
            _set_or_pop(self.verdicts, entity_id, new_verdicts)
            _set_or_pop(
                self.kept,
                entity_id,
                sum(1 for history_id in new_ids if self.view.has_opinion(history_id)),
            )

        summarize_tracked = plan.dirty | flipped_owners | self._claimed_by(flipped_ids)
        for entity_id in sorted(summarize_tracked):
            self._resummarize(entity_id)
        self._notify(summarize_tracked)
        return self._stats(plan, summarize_tracked)

    def _resummarize(self, entity_id: str) -> None:
        """Recompute one entity's summary from current parts; evict if bare."""
        histories = self.accepted.get(entity_id, [])
        inferred = [
            self.view.opinion(history_id)
            for history_id in sorted(self._claims.get(entity_id, ()))
            if history_id in self._surviving
        ]
        explicit = self.view.explicit_ratings(entity_id)
        if histories or inferred or explicit:
            self.summaries[entity_id] = summarize_entity(
                entity_id=entity_id,
                histories=histories,
                inferred=inferred,
                explicit_ratings=explicit,
            )
        else:
            self.summaries.pop(entity_id, None)

    def _claimed_by(self, history_ids: set[str]) -> set[str]:
        """Entities whose summaries depend on these (flipped) histories."""
        claimed: set[str] = set()
        for history_id in sorted(history_ids):
            opinion = self.view.opinion(history_id)
            if opinion is not None:
                claimed.add(opinion.entity_id)
        return claimed

    def adopt_full(
        self,
        plan: CyclePlan,
        accepted_by_entity: dict[str, list[InteractionHistory]],
        verdicts_by_entity: dict[str, list[HistoryVerdict]],
        kept_by_entity: dict[str, int],
        summaries: list[EntityOpinionSummary],
    ) -> CycleStats:
        """Adopt a full recompute produced elsewhere (the sharded kernel).

        The flip/cascade accounting is still computed — against the
        pre-adoption caches, over the plan's tracked judge set — so the
        stats (and the telemetry built from them) are identical to what
        the incremental path would have reported.
        """
        flipped_owners: set[str] = set()
        flipped_ids: set[str] = set()
        for entity_id in sorted(plan.judge_tracked):
            new_ids = frozenset(
                history.history_id
                for history in accepted_by_entity.get(entity_id, [])
            )
            old_ids = self._accepted_ids.get(entity_id, frozenset())
            if new_ids != old_ids:
                flipped_owners.add(entity_id)
                flipped_ids |= new_ids ^ old_ids
        summarize_tracked = plan.dirty | flipped_owners | self._claimed_by(flipped_ids)

        self.accepted.clear()
        self.accepted.update(accepted_by_entity)
        self._accepted_ids = {
            entity_id: frozenset(history.history_id for history in histories)
            for entity_id, histories in accepted_by_entity.items()
        }
        self._surviving = set()
        for ids in self._accepted_ids.values():
            self._surviving.update(ids)
        self.verdicts.clear()
        self.verdicts.update(verdicts_by_entity)
        self.kept.clear()
        self.kept.update(kept_by_entity)
        self.summaries.clear()
        self.summaries.update({summary.entity_id: summary for summary in summaries})
        self._notify(summarize_tracked)
        return self._stats(plan, summarize_tracked)

    def _stats(self, plan: CyclePlan, summarize_tracked: set[str]) -> CycleStats:
        return CycleStats(
            n_dirty=len(plan.dirty),
            n_redirtied=len(plan.redirtied),
            n_judge_tracked=len(plan.judge_tracked),
            n_judge_cached=plan.n_entities - len(plan.judge_tracked),
            n_summarize_tracked=len(summarize_tracked),
            n_summarize_cached=len(plan.prev_summary_keys - summarize_tracked),
        )

    # ------------------------------------------------------------ reading

    def rejected_verdicts(self) -> list[HistoryVerdict]:
        """All suspicious verdicts, in canonical (history-id) order."""
        return sorted(
            (
                verdict
                for verdicts in self.verdicts.values()
                for verdict in verdicts
            ),
            key=lambda verdict: verdict.history_id,
        )

    @property
    def n_opinions_kept(self) -> int:
        return sum(self.kept.values())


def _extend_pool(pool: ProfilePools, fragment: ProfilePools, kind: str) -> None:
    """Concatenate one entity's fragment into a kind pool (multiset union)."""
    n = fragment.n_histories.get(kind)
    if not n:
        return
    pool.n_histories[kind] = pool.n_histories.get(kind, 0) + n
    for name in ("gaps", "durations", "counts"):
        values = getattr(fragment, name).get(kind)
        if values:
            getattr(pool, name).setdefault(kind, []).extend(values)


def _set_or_pop(mapping: dict, key: str, value) -> None:
    """Keep ``mapping`` sparse: empty/zero values delete the entry."""
    if value:
        mapping[key] = value
    else:
        mapping.pop(key, None)
