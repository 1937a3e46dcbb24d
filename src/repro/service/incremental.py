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
  block is *replaced* when its entity is dirtied and when an opinion
  slot of one of its histories is written (the slot's *owner*, which
  such a write leaves clean): the slots are re-read and the block is
  spliced per history (:func:`~repro.scale.kernel.splice_frames`), so
  only the histories that gained a record are laid out again, and a
  kept block always equals a fresh layout.
* **Folds** — a block carries its entity's summary fold: the multiset
  of group signatures of the records of the histories that survived the
  filter when the entity was last summarized
  (:class:`~repro.scale.kernel.SignatureFold`).  A changed history
  leaves the fold with its old segment when the block is spliced and
  enters with its new one at the next summary; a verdict flip moves a
  whole history in or out.

Dirty sets are Python ``set``s and therefore iterate in hash order;
every loop below goes through ``sorted()`` before touching float math,
and the ``det-dirty-iteration`` lint rule holds the line.

The engine reads the stores only through a :class:`StoreView`.  The
per-entity profile fragments the fraud profiles roll up from are sliced
from the entities' frame blocks and swapped into per-kind pools
(:class:`~repro.scale.kernel.KindPool`); each cycle then stacks the
judged entities' blocks into one columnar
:class:`~repro.scale.kernel.ShardFrame` (entity order, then history-id
order) and takes the verdicts (:func:`~repro.scale.kernel.judge_frame`)
from it, and each re-summarized entity's summary and panels from its
block.  A fresh engine runs the same code from no blocks, no pools and
empty folds.  The same cycle runs at every dirty fraction and shard
count.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress
from typing import Protocol

import numpy as np

from repro.core.aggregation import EntityOpinionSummary, OpinionUpload
from repro.core.visualization import EntityPanels
from repro.fraud.detector import DetectorConfig, HistoryVerdict
from repro.fraud.profiles import ProfilePools, TypicalProfile, profiles_from_pools
from repro.privacy.history_store import InteractionHistory
from repro.scale.kernel import (
    NO_SIGNATURES,
    KindPool,
    ShardFrame,
    SignatureFold,
    block_panels,
    build_frame,
    carry_fold,
    concat_frames,
    judge_frame,
    refold,
    slice_pools,
    splice_frames,
    summarize_block,
)

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
class EntityBlock:
    """One entity's histories in history-id order, as a frame, with
    their opinion slots and the entity's summary fold."""

    frame: ShardFrame
    opinions: list[OpinionUpload | None]
    #: Per history: its slot claims this entity ...
    claims: np.ndarray
    #: ... with this rating (0.0 where it does not).
    ratings: np.ndarray
    #: Per history: its records are in ``signatures``.
    folded: np.ndarray
    signatures: SignatureFold
    #: Signatures of records that left with a changed history's old
    #: segment, still to be dropped from ``signatures``.
    unfolded: np.ndarray


EMPTY_BLOCK = EntityBlock(
    frame=build_frame([], {}),
    opinions=[],
    claims=np.zeros(0, dtype=bool),
    ratings=np.zeros(0),
    folded=np.zeros(0, dtype=bool),
    signatures=SignatureFold(),
    unfolded=NO_SIGNATURES,
)


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
        #: Per-kind pools of the entities' feature-value fragments, the
        #: entities whose fragment is pooled, and the per-kind profiles.
        self._kind_pools: dict[str, KindPool] = {}
        self._pooled: set[str] = set()
        #: entity_id -> frame block.  Kept across cycles; replaced by a
        #: splice at the next cycle after the entity was dirtied or one of
        #: its slots was written (``_stale``).
        self._blocks: dict[str, EntityBlock] = {}
        self._stale: set[str] = set()
        self._kind_profiles: dict[str, TypicalProfile | None] = {}
        self._profile_digests: dict[str, str] = {}
        #: Cycle listeners (the serving layer's cache-invalidation hook).
        self._listeners: list[Callable[[frozenset[str]], None]] = []

    def subscribe(self, listener: Callable[[frozenset[str]], None]) -> None:
        """Register a listener called after every cycle with the tracked
        summary-change set (``summarize_tracked`` — every entity whose
        summary *could* have changed).  This is the one coherence feed of
        :class:`repro.serve.cache.SummaryVersionCache`: the serving layer
        evicts every cached result that depends on an entity in it."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[frozenset[str]], None]) -> None:
        """Stop notifying ``listener`` (registered by :meth:`subscribe`)."""
        self._listeners.remove(listener)

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
        write marks the owner's frame block, which holds the old slot, for
        replacement; an overwrite leaves the owner clean, because its
        histories, and so its verdicts and kept-opinion count, did not
        change.
        """
        self._dirty.add(record.entity_id)
        if owner is not None:
            self._stale.add(owner)
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

        Every stale block — its entity dirtied or one of its slots
        written — is replaced first, all in one splice.  The entities
        whose pooled profile fragment may have moved — the dirty ones,
        and on a fresh engine every entity — have it sliced from their
        block and swapped into their kind's pool; the fraud profiles are
        rebuilt only for those kinds, and the judge-tracked entities'
        blocks are stacked into one frame.
        """
        dirty = set(self._dirty)
        self._dirty.clear()
        self._splice(sorted(self._stale | dirty))
        self._stale.clear()
        entities = self.view.entities_with_histories()
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
        redirtied: set[str] = set()
        for kind in sorted(changed_kinds & self._kind_pools.keys()):
            redirtied.update(self._kind_pools[kind].entities)
        redirtied = (redirtied & entities) - dirty
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

    def _block(self, entity_id: str) -> EntityBlock:
        """``entity_id``'s frame block, laid out first if it has none."""
        block = self._blocks.get(entity_id)
        if block is None:
            self._splice([entity_id])
            block = self._blocks[entity_id]
        return block

    def _splice(self, entity_ids: list[str]) -> None:
        """Replace these entities' blocks from their re-read slots.

        Each old block is spliced per history: current segments are
        copied, and the other histories of every entity are laid out by
        one :func:`~repro.scale.kernel.build_frame`.  The fold keeps the
        reused histories; a history whose segment was not reused leaves
        it with its old records at the entity's next summary.
        """
        olds = [self._blocks.get(entity_id, EMPTY_BLOCK) for entity_id in entity_ids]
        slots = [self.view.history_slots(entity_id) for entity_id in entity_ids]
        for entity_slots in slots:
            entity_slots.sort(key=_by_history_id)
        spliced = splice_frames(
            [old.frame for old in olds],
            [[history for history, _opinion in entity_slots] for entity_slots in slots],
            self.entity_kinds,
        )
        for entity_id, old, entity_slots, (frame, source) in zip(
            entity_ids, olds, slots, spliced
        ):
            folded, leaving = carry_fold(old.frame, old.folded, source)
            opinions = [opinion for _history, opinion in entity_slots]
            claims = [
                opinion is not None and opinion.entity_id == entity_id
                for opinion in opinions
            ]
            self._blocks[entity_id] = EntityBlock(
                frame=frame,
                opinions=opinions,
                claims=np.array(claims, dtype=bool),
                ratings=np.array(
                    [
                        opinion.rating if claim else 0.0
                        for opinion, claim in zip(opinions, claims)
                    ],
                    dtype=np.float64,
                ),
                folded=folded,
                signatures=old.signatures,
                unfolded=np.concatenate((old.unfolded, leaving)),
            )

    def _build_profiles(
        self, dirty: set[str], entities: set[str]
    ) -> dict[str, TypicalProfile]:
        """Per-kind profiles from per-kind pools of per-entity fragments.

        Exactness: a kind's pooled values change only when one of its
        entities' histories changed, and every such entity is dirty.  So
        only the dirty entities' fragments are sliced and swapped into
        their kinds' pools (with the entities that gained or lost their
        histories), only those kinds' profiles are rebuilt, and each pool
        holds the same multiset of values :func:`build_profiles` would
        pool (``np.percentile`` sorts, so collection order never
        matters).
        """
        refresh = (dirty & (entities | self._pooled)) | (entities ^ self._pooled)
        fragments: dict[str, dict[str, ProfilePools]] = {}
        for entity_id in sorted(refresh):
            kind = self.entity_kinds.get(entity_id)
            if kind is None:
                continue
            fragment = ProfilePools()
            if entity_id in entities:
                frame = self._block(entity_id).frame
                fragment = slice_pools(frame, 0, frame.n_histories)
            fragments.setdefault(kind, {})[entity_id] = fragment
        self._pooled = entities
        for kind, kind_fragments in sorted(fragments.items()):
            pool = self._kind_pools.setdefault(kind, KindPool(kind))
            pool.replace(kind_fragments)
            if pool.n_histories:
                self._kind_profiles[kind] = profiles_from_pools(pool.pools()).get(kind)
            else:
                # The kind lost its last history.
                del self._kind_pools[kind]
                self._kind_profiles.pop(kind, None)
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
        suspicious_at = np.flatnonzero(judgement.suspicious).tolist()
        histories = tracked.frame.histories
        hist_ids = tracked.frame.hist_ids
        opinions = tracked.opinions
        flipped_owners: set[str] = set()
        claimed: set[str] = set()
        for entity_id, (start, stop) in tracked.bounds.items():
            window = keep_list[start:stop]
            new_accepted = list(compress(histories[start:stop], window))
            kept_opinions = list(compress(opinions[start:stop], window))
            kept = len(kept_opinions) - kept_opinions.count(None)
            # The verdicts are in frame order, one per suspicious history.
            new_verdicts = judgement.verdicts[
                bisect_left(suspicious_at, start) : bisect_left(suspicious_at, stop)
            ]
            new_ids = frozenset(compress(hist_ids[start:stop], window))
            old_ids = self._accepted_ids.get(entity_id, frozenset())
            if new_ids != old_ids:
                # A flipped history invalidates the entity its slot claims.
                flipped_owners.add(entity_id)
                flipped = new_ids ^ old_ids
                for index in range(start, stop):
                    opinion = opinions[index]
                    if opinion is not None and hist_ids[index] in flipped:
                        claimed.add(opinion.entity_id)
                self._surviving.difference_update(old_ids - new_ids)
                self._surviving.update(new_ids - old_ids)
            _set_or_pop(self.accepted, entity_id, new_accepted)
            _set_or_pop(self._accepted_ids, entity_id, new_ids)
            _set_or_pop(self.verdicts, entity_id, new_verdicts)
            _set_or_pop(self.kept, entity_id, kept)

        summarize_tracked = plan.dirty | flipped_owners | claimed
        for entity_id in sorted(summarize_tracked):
            block = self._block(entity_id)
            if entity_id in tracked.bounds:
                start, stop = tracked.bounds[entity_id]
                entity_keep = keep[start:stop].copy()
            else:
                # Summarized without being judged: the accepted histories
                # are an earlier cycle's.
                entity_keep = np.fromiter(
                    (history_id in self._surviving for history_id in block.frame.hist_ids),
                    dtype=bool,
                    count=block.frame.n_histories,
                )
            self._resummarize(entity_id, block, entity_keep)
        self._notify(summarize_tracked)
        return self._stats(plan, summarize_tracked)

    def _resummarize(self, entity_id: str, block: EntityBlock, keep: np.ndarray) -> None:
        """Refold one entity's kept histories, then recompute its summary
        and panels from its block; evict what is bare."""
        block.signatures = refold(
            block.signatures, block.frame, block.folded, keep, block.unfolded
        )
        block.folded = keep
        block.unfolded = NO_SIGNATURES
        if keep.any():
            self.panels[entity_id] = block_panels(block.frame, entity_id, keep)
        else:
            self.panels.pop(entity_id, None)
        explicit = self.view.explicit_ratings(entity_id)
        claimed = not self._surviving.isdisjoint(self._claims.get(entity_id, ()))
        if entity_id in self.accepted or claimed or explicit:
            self.summaries[entity_id] = summarize_block(
                block.frame,
                entity_id,
                keep,
                block.claims,
                block.ratings,
                block.signatures,
                explicit,
            )
        else:
            self.summaries.pop(entity_id, None)

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


def _by_history_id(slot: Slot) -> str:
    return slot[0].history_id


def _set_or_pop(mapping: dict, key: str, value) -> None:
    """Keep ``mapping`` sparse: empty/zero values delete the entry."""
    if value:
        mapping[key] = value
    else:
        mapping.pop(key, None)
