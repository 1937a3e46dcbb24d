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
* **Frame blocks** — each entity's histories and opinion slots are laid
  out once, as a single-entity frame block, and kept across cycles.  A
  block is dropped when its entity is dirtied and when an opinion slot
  of one of its histories is written (the slot's *owner*, which such a
  write leaves clean), so a kept block always equals a fresh layout.

Dirty sets are Python ``set``s and therefore iterate in hash order;
every loop below goes through ``sorted()`` before touching float math,
and the ``det-dirty-iteration`` lint rule holds the line.

The engine reads the stores only through a :class:`StoreView`.  The
per-entity profile fragments the fraud profiles roll up from are sliced
from the entities' frame blocks; each cycle then stacks the tracked
entities' blocks into one columnar
:class:`~repro.scale.kernel.ShardFrame` (entity order, then history-id
order) and takes the verdicts (:func:`~repro.scale.kernel.judge_frame`)
and the summary columns from it.  The same cycle runs at every dirty
fraction and shard count.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.aggregation import EntityOpinionSummary, OpinionUpload
from repro.core.visualization import EntityPanels, entity_panels
from repro.fraud.detector import DetectorConfig, HistoryVerdict
from repro.fraud.profiles import ProfilePools, TypicalProfile, profiles_from_pools
from repro.privacy.history_store import InteractionHistory
from repro.scale.kernel import (
    ShardFrame,
    build_frame,
    concat_frames,
    judge_frame,
    slice_pools,
    summarize_slice,
)
from repro.scale.merge import merge_pools

#: One stored history and its opinion slot (``None`` when empty).
Slot = tuple[InteractionHistory, OpinionUpload | None]


class StoreView(Protocol):
    """The read surface the engine computes from, across every shard."""

    def history_slots(self, entity_id: str) -> list[Slot]: ...

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
class TrackedFrame:
    """Some entities' histories as one frame, with their opinion slots.

    Histories run in entity order, then history-id order; ``bounds``
    maps each entity to its history range in the frame, and
    ``opinions`` holds each history's slot, read on the history's own
    shard.
    """

    frame: ShardFrame
    opinions: list[OpinionUpload | None]
    bounds: dict[str, tuple[int, int]]


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
    #: The judge-tracked entities' histories.
    tracked: TrackedFrame


@dataclass
class CycleStats:
    """Tracked work accounting for one cycle.

    All fields derive from *tracked* sets (what incrementality says must
    be recomputed), so the aggregate telemetry built from them is
    byte-identical at every shard count.
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
    set, per-owner kept-opinion counts, the entity summaries, and the
    entities' Figure 3 panels.  Summaries and panels are what a cycle
    publishes: the serving layer reads only them, never the live
    histories intake appends to between cycles.  Panels are recomputed
    with summaries, for ``summarize_tracked``: an entity's accepted
    histories change only through an append (which dirties it;
    compaction happens on append) or a verdict flip.  The server aliases
    ``summaries``, so every update here mutates in place and never
    rebinds.
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
        #: Post-filter state, keyed by entity.
        self.accepted: dict[str, list[InteractionHistory]] = {}
        self.summaries: dict[str, EntityOpinionSummary] = {}
        #: entity_id -> Figure 3 panels of its accepted histories, as of
        #: the cycle that last tracked it (absent = no accepted history).
        self.panels: dict[str, EntityPanels] = {}
        self.verdicts: dict[str, list[HistoryVerdict]] = {}
        self.kept: dict[str, int] = {}
        self._accepted_ids: dict[str, frozenset[str]] = {}
        self._surviving: set[str] = set()
        #: Per-entity feature-value fragments and the per-kind profiles
        #: they roll up into.
        self._fragments: dict[str, ProfilePools] = {}
        #: entity_id -> frame block: the entity's slots in history-id
        #: order, laid out as a single-entity frame.  Kept across cycles
        #: until the entity is dirtied or one of its slots is written.
        self._blocks: dict[str, TrackedFrame] = {}
        self._kind_profiles: dict[str, TypicalProfile | None] = {}
        self._profile_digests: dict[str, str] = {}
        #: Cycle listeners (the serving layer's cache-invalidation hook).
        self._listeners: list[Callable[[frozenset[str]], None]] = []

    def subscribe(self, listener: Callable[[frozenset[str]], None]) -> None:
        """Register a listener called after every cycle with the tracked
        summary-change set (``summarize_tracked`` — every entity whose
        summary *could* have changed).  This is the cache-coherence feed
        of :class:`repro.serve.cache.SummaryVersionCache`."""
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
        overwrite moves the claim and dirties the abandoned entity.  Any
        write drops the owner's frame block, which holds the old slot;
        an overwrite leaves the owner clean, because its histories, and
        so its verdicts and kept-opinion count, did not change.
        """
        self._dirty.add(record.entity_id)
        if owner is not None:
            self._blocks.pop(owner, None)
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

    def plan(self) -> CyclePlan:
        """Drain the dirty set and decide what this cycle must recompute.

        Every dirty entity loses its profile fragment and its frame
        block.  The entities without a fragment — every dirty entity, and
        on a fresh engine every entity — have it sliced from their
        block.  The fraud profiles are then rebuilt from the fragments,
        only for the kinds that contain a dirty entity, and the
        judge-tracked entities' blocks are stacked into one frame.
        """
        dirty = set(self._dirty)
        self._dirty.clear()
        for entity_id in sorted(dirty):
            self._fragments.pop(entity_id, None)
            self._blocks.pop(entity_id, None)
        entities = self.view.entities_with_histories()
        for entity_id in sorted(entities - self._fragments.keys()):
            frame = self._block(entity_id).frame
            self._fragments[entity_id] = slice_pools(frame, 0, frame.n_histories)
        profiles = self._build_profiles(dirty, entities)
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
            tracked=self._track(sorted(judge_tracked)),
        )

    def _track(self, entity_ids: list[str]) -> TrackedFrame:
        """``entity_ids``' blocks stacked into one frame (ids sorted)."""
        blocks = [self._block(entity_id) for entity_id in entity_ids]
        opinions: list[OpinionUpload | None] = []
        bounds: dict[str, tuple[int, int]] = {}
        for entity_id, block in zip(entity_ids, blocks):
            start = len(opinions)
            opinions.extend(block.opinions)
            bounds[entity_id] = (start, len(opinions))
        return TrackedFrame(
            frame=concat_frames([block.frame for block in blocks]),
            opinions=opinions,
            bounds=bounds,
        )

    def _block(self, entity_id: str) -> TrackedFrame:
        """``entity_id``'s frame block, laid out from the stores if missing."""
        block = self._blocks.get(entity_id)
        if block is None:
            slots = sorted(
                self.view.history_slots(entity_id),
                key=lambda slot: slot[0].history_id,
            )
            histories = [history for history, _opinion in slots]
            block = self._blocks[entity_id] = TrackedFrame(
                frame=build_frame(histories, self.entity_kinds),
                opinions=[opinion for _history, opinion in slots],
                bounds={entity_id: (0, len(slots))},
            )
        return block

    def _build_profiles(
        self, dirty: set[str], entities: set[str]
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
            if kind in self._kind_profiles and kind not in dirty_kinds:
                continue
            pool = merge_pools([self._fragments[entity_id] for entity_id in by_kind[kind]])
            self._kind_profiles[kind] = profiles_from_pools(pool).get(kind)
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
        tracked = plan.tracked
        judgement = judge_frame(tracked.frame, plan.profiles, self.config)
        keep = ~judgement.suspicious
        keep_list = keep.tolist()
        verdict_at = dict(
            zip(np.flatnonzero(judgement.suspicious).tolist(), judgement.verdicts)
        )
        histories = tracked.frame.histories
        opinions = tracked.opinions
        flipped_owners: set[str] = set()
        claimed: set[str] = set()
        for entity_id, (start, stop) in tracked.bounds.items():
            new_accepted: list[InteractionHistory] = []
            new_verdicts: list[HistoryVerdict] = []
            kept = 0
            for index in range(start, stop):
                if keep_list[index]:
                    new_accepted.append(histories[index])
                    kept += opinions[index] is not None
                else:
                    new_verdicts.append(verdict_at[index])
            new_ids = frozenset(history.history_id for history in new_accepted)
            old_ids = self._accepted_ids.get(entity_id, frozenset())
            if new_ids != old_ids:
                # A flipped history invalidates the entity its slot claims.
                flipped_owners.add(entity_id)
                flipped = new_ids ^ old_ids
                for index in range(start, stop):
                    opinion = opinions[index]
                    if opinion is not None and histories[index].history_id in flipped:
                        claimed.add(opinion.entity_id)
            self._surviving.difference_update(old_ids)
            self._surviving.update(new_ids)
            _set_or_pop(self.accepted, entity_id, new_accepted)
            _set_or_pop(self._accepted_ids, entity_id, new_ids)
            _set_or_pop(self.verdicts, entity_id, new_verdicts)
            _set_or_pop(self.kept, entity_id, kept)

        summarize_tracked = plan.dirty | flipped_owners | claimed
        # Entities summarized without being judged keep their accepted
        # histories from an earlier cycle.
        rest = self._track(sorted(summarize_tracked - tracked.bounds.keys()))
        rest_keep = np.fromiter(
            (history_id in self._surviving for history_id in rest.frame.hist_ids),
            dtype=bool,
            count=rest.frame.n_histories,
        )
        for entity_id in sorted(summarize_tracked):
            if entity_id in tracked.bounds:
                self._resummarize(entity_id, tracked, keep)
            else:
                self._resummarize(entity_id, rest, rest_keep)
        self._notify(summarize_tracked)
        return self._stats(plan, summarize_tracked)

    def _resummarize(
        self, entity_id: str, source: TrackedFrame, keep: np.ndarray
    ) -> None:
        """Recompute one entity's summary and panels from its slice of
        ``source``; evict what is bare."""
        self._repanel(entity_id)
        explicit = self.view.explicit_ratings(entity_id)
        claimed = not self._surviving.isdisjoint(self._claims.get(entity_id, ()))
        if entity_id in self.accepted or claimed or explicit:
            start, stop = source.bounds[entity_id]
            self.summaries[entity_id] = summarize_slice(
                source.frame, entity_id, start, stop, keep, source.opinions, explicit
            )
        else:
            self.summaries.pop(entity_id, None)

    def _repanel(self, entity_id: str) -> None:
        """Recompute one entity's panels from its accepted histories."""
        histories = self.accepted.get(entity_id)
        if histories:
            self.panels[entity_id] = entity_panels(entity_id, histories)
        else:
            self.panels.pop(entity_id, None)

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


def _set_or_pop(mapping: dict, key: str, value) -> None:
    """Keep ``mapping`` sparse: empty/zero values delete the entry."""
    if value:
        mapping[key] = value
    else:
        mapping.pop(key, None)
