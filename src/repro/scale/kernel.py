"""Columnar maintenance kernel: bit-identical, vectorized fraud analysis.

The scalar :class:`~repro.fraud.detector.FraudDetector` walks histories
one at a time, paying Python-level attribute access and many small NumPy
calls per history.  This kernel lays the histories a maintenance cycle
tracks out as a :class:`ShardFrame` — contiguous per-record arrays with
per-history segment offsets — and computes the same verdicts, profile
pools and summary columns with segment-wise array reductions.

Equivalence with the scalar spec (``FraudDetector.judge``,
``collect_profile_pools``, ``summarize_entity``) is a *bitwise*
contract, argued operation by operation:

* percentile pools are multisets; the kernel pools exactly the same
  float values the scalar path pools, in a different order that
  ``np.percentile`` (sort-based) cannot observe;
* minima, maxima, comparisons, and integer counts are exact regardless
  of evaluation order;
* medians are taken as ``(sorted[lo] + sorted[hi]) / 2.0`` on per-history
  value-sorted segments — precisely what ``np.median`` computes;
* the one mean/std in the detector (the REGULARITY coefficient of
  variation) is evaluated per candidate history on a contiguous slice in
  the same element order as the scalar path, so NumPy's pairwise
  summation visits the same addition tree;
* summaries and panels come from an entity's frame block
  (:func:`summarize_block`, :func:`block_panels`) and go through
  :func:`~repro.core.aggregation.summarize_entity_from_parts` and
  :func:`~repro.core.visualization.panels_from_columns`, the one place
  each piece of math lives.  The order-dependent float reductions there
  (the weighted mean of kept opinions, the weight sum, ``pearson``) run
  over the full kept lists in history order.  Only two parts are folded
  across cycles: the group-deflated interaction count, which is the
  size of a :class:`SignatureFold` (a multiset of
  :func:`~repro.core.aggregation.group_signatures`, exact under any
  order of adds and drops), and each history's mean positive travel
  (``travel_means``), a per-history column that a block keeps with the
  history's segment;
* a block is re-laid per history (:func:`splice_frames`): a history
  changes only by an append, which raises its ``n_interactions`` by
  one, so a segment whose recorded count equals the live one is current
  and is copied, and only the other histories are laid out again.

``tests/scale/test_kernel_spec.py`` checks the contract against the
scalar spec, spliced blocks and folds included; docs/SCALING.md records
it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from repro.core.aggregation import (
    EntityOpinionSummary,
    group_signatures,
    influence_weight,
    summarize_entity_from_parts,
)
from repro.core.visualization import EntityPanels, panels_from_columns
from repro.fraud.detector import (
    DetectorConfig,
    FraudDetector,
    FraudFlag,
    HistoryVerdict,
)
from repro.fraud.profiles import ProfilePools, TypicalProfile
from repro.privacy.history_store import InteractionHistory
from repro.util.clock import DAY


@dataclass
class ShardFrame:
    """A list of histories in columnar form.

    Record-level arrays are segmented per history via ``offsets`` (length
    ``n + 1``); gap-level arrays via ``gap_offsets``.  ``codes`` maps each
    history to an index into ``kind_labels`` (-1 for entities of unknown
    kind, which fraud profiling skips).
    """

    histories: list[InteractionHistory]
    hist_ids: list[str]
    entity_ids: list[str]
    kind_labels: list[str]
    codes: np.ndarray
    n_interactions: np.ndarray
    n_raw: np.ndarray
    offsets: np.ndarray
    #: Event times, per-history record (arrival) order — pairs with
    #: ``durations_raw`` to preserve each record's (time, duration)
    #: group-deflation signature.
    times_raw: np.ndarray
    #: Event times, per-history chronological order.
    times_sorted: np.ndarray
    #: Durations, per-history record (arrival) order — the pool order.
    durations_raw: np.ndarray
    #: Durations, per-history value order — for exact medians.
    durations_sorted: np.ndarray
    #: Consecutive-time gaps, compacted across histories.
    gaps: np.ndarray
    gap_offsets: np.ndarray
    #: Per history: :func:`~repro.core.visualization.mean_positive_travel`
    #: of its raw records (Figure 3(b)'s distance).
    travel_means: np.ndarray

    @property
    def n_histories(self) -> int:
        return len(self.histories)


def build_frame(
    histories: list[InteractionHistory], entity_kinds: dict[str, str]
) -> ShardFrame:
    """Lay ``histories`` out as contiguous feature arrays."""
    n = len(histories)
    hist_ids = list(map(attrgetter("history_id"), histories))
    entity_ids = list(map(attrgetter("entity_id"), histories))
    kind_labels = _kind_labels(entity_ids, entity_kinds)
    label_code = {label: code for code, label in enumerate(kind_labels)}
    code_of = {eid: label_code.get(entity_kinds.get(eid), -1) for eid in set(entity_ids)}
    codes = np.fromiter(map(code_of.__getitem__, entity_ids), dtype=np.int64, count=n)
    n_interactions = np.fromiter(
        map(attrgetter("n_interactions"), histories), dtype=np.int64, count=n
    )
    records = list(map(attrgetter("records"), histories))
    n_raw = np.fromiter(map(len, records), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_raw, out=offsets[1:])
    total = int(offsets[-1])
    uploads = list(map(attrgetter("upload"), chain.from_iterable(records)))

    def column(name: str) -> np.ndarray:
        return np.fromiter(map(attrgetter(name), uploads), dtype=np.float64, count=total)

    times = column("event_time")
    durations_raw = column("duration")
    segment = np.repeat(np.arange(n, dtype=np.int64), n_raw)
    # Primary key: segment (already grouped); secondary: the value. This
    # sorts each history's records without disturbing segment boundaries.
    times_sorted = times[np.lexsort((times, segment))]
    durations_sorted = durations_raw[np.lexsort((durations_raw, segment))]

    if total:
        diffs = times_sorted[1:] - times_sorted[:-1]
        within = segment[1:] == segment[:-1]
        gaps = diffs[within]
    else:
        gaps = np.empty(0, dtype=np.float64)
    gap_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.maximum(n_raw - 1, 0), out=gap_offsets[1:])

    return ShardFrame(
        histories=histories,
        hist_ids=hist_ids,
        entity_ids=entity_ids,
        kind_labels=kind_labels,
        codes=codes,
        n_interactions=n_interactions,
        n_raw=n_raw,
        offsets=offsets,
        times_raw=times,
        times_sorted=times_sorted,
        durations_raw=durations_raw,
        durations_sorted=durations_sorted,
        gaps=gaps,
        gap_offsets=gap_offsets,
        travel_means=_travel_means(column("travel_km"), segment, n),
    )


def _travel_means(travels: np.ndarray, segment: np.ndarray, n: int) -> np.ndarray:
    """:func:`~repro.core.visualization.mean_positive_travel` of each of
    the ``n`` histories' segments of ``travels``.

    The histories with the same number of positive travels have them
    laid out as the rows of one matrix, and ``np.mean`` along its rows
    reduces each row as it reduces the row on its own
    (``tests/scale/test_kernel_spec.py`` holds it to the function).
    """
    means = np.zeros(n, dtype=np.float64)
    positive = travels > 0
    n_positive = np.bincount(segment[positive], minlength=n)
    starts = np.cumsum(n_positive) - n_positive
    values = travels[positive]
    # The positive counts that occur (bincount, not np.unique, which
    # imports numpy.ma on first use).
    for count in (np.flatnonzero(np.bincount(n_positive)[1:]) + 1).tolist():
        rows = np.flatnonzero(n_positive == count)
        means[rows] = np.mean(values[starts[rows, None] + np.arange(count)], axis=1)
    return means


def _kind_labels(entity_ids: list[str], entity_kinds: dict[str, str]) -> list[str]:
    """The sorted kinds of ``entity_ids`` (unknown kinds have none)."""
    return sorted(
        {
            kind
            for kind in (entity_kinds.get(eid) for eid in set(entity_ids))
            if kind is not None
        }
    )


def _code_table(frame: ShardFrame, label_code: dict[str, int]) -> np.ndarray:
    """Indexed by ``frame``'s kind codes, the codes of ``label_code``; a
    kind missing from it codes -1, like an unknown kind."""
    # The trailing -1 is what an unknown kind's code (-1) indexes.
    remap = [label_code.get(label, -1) for label in frame.kind_labels]
    return np.array([*remap, -1], dtype=np.int64)


def concat_frames(frames: Sequence[ShardFrame]) -> ShardFrame:
    """Stack ``frames`` end to end.

    Equal, column by column, to :func:`build_frame` over the frames'
    histories in the same order (and the same ``entity_kinds``): every
    column is per-history segmented, so segments concatenate unchanged;
    kind codes are remapped to the sorted union of the frames'
    ``kind_labels``, and offsets are rebuilt from the record counts.
    Every column is a fresh array, so the result pins no input buffer.
    """
    kind_labels = sorted({label for frame in frames for label in frame.kind_labels})
    label_code = {label: code for code, label in enumerate(kind_labels)}
    histories: list[InteractionHistory] = []
    hist_ids: list[str] = []
    entity_ids: list[str] = []
    codes: list[np.ndarray] = []
    for frame in frames:
        histories.extend(frame.histories)
        hist_ids.extend(frame.hist_ids)
        entity_ids.extend(frame.entity_ids)
        codes.append(_code_table(frame, label_code)[frame.codes])

    def stacked(column: str, dtype) -> np.ndarray:
        parts = [getattr(frame, column) for frame in frames]
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    n_raw = stacked("n_raw", np.int64)
    offsets = np.zeros(len(histories) + 1, dtype=np.int64)
    np.cumsum(n_raw, out=offsets[1:])
    gap_offsets = np.zeros(len(histories) + 1, dtype=np.int64)
    np.cumsum(np.maximum(n_raw - 1, 0), out=gap_offsets[1:])
    return ShardFrame(
        histories=histories,
        hist_ids=hist_ids,
        entity_ids=entity_ids,
        kind_labels=kind_labels,
        codes=np.concatenate(codes) if codes else np.empty(0, dtype=np.int64),
        n_interactions=stacked("n_interactions", np.int64),
        n_raw=n_raw,
        offsets=offsets,
        times_raw=stacked("times_raw", np.float64),
        times_sorted=stacked("times_sorted", np.float64),
        durations_raw=stacked("durations_raw", np.float64),
        durations_sorted=stacked("durations_sorted", np.float64),
        gaps=stacked("gaps", np.float64),
        gap_offsets=gap_offsets,
        travel_means=stacked("travel_means", np.float64),
    )


def splice_frames(
    olds: Sequence[ShardFrame],
    histories: Sequence[list[InteractionHistory]],
    entity_kinds: dict[str, str],
) -> list[tuple[ShardFrame, np.ndarray]]:
    """:func:`build_frame` over each list of ``histories``, reusing the
    current segments of the matching frame in ``olds``.

    A history changes only by :meth:`HistoryStore.append
    <repro.privacy.history_store.HistoryStore.append>`, and every append
    raises its ``n_interactions`` by exactly one, compaction included.
    So the segment an old frame holds for a history id is current if and
    only if its recorded ``n_interactions`` equals the live one.  The
    changed and new histories of every list are laid out together, by
    one :func:`build_frame`; every segment, reused or fresh, then moves
    to its place in one vectorised gather, and each list's frame is cut
    from the result as fresh arrays.  Each result equals ``build_frame``
    over its list, column by column, whatever its old frame held.

    Returns, per list, the frame and, per history, the index in the old
    frame of the segment it reused (-1 when it was laid out afresh).
    """
    old = concat_frames(olds)
    listed = list(chain.from_iterable(histories))
    n = len(listed)
    lengths = np.fromiter(map(len, histories), dtype=np.int64, count=len(histories))
    old_lengths = np.array([frame.n_histories for frame in olds], dtype=np.int64)
    old_starts = np.cumsum(old_lengths) - old_lengths
    list_of = np.repeat(np.arange(lengths.size), lengths)
    old_list_of = np.repeat(np.arange(lengths.size), old_lengths)
    hist_ids = list(map(attrgetter("history_id"), listed))
    live = np.fromiter(map(attrgetter("n_interactions"), listed), dtype=np.int64, count=n)
    position = dict(zip(old.hist_ids, range(old.n_histories)))
    at = np.array(list(map(position.get, hist_ids, repeat(-1, n))), dtype=np.int64)
    reused = at >= 0
    # Only a current segment of the history's own list's old frame counts.
    reused[reused] = (old.n_interactions[at[reused]] == live[reused]) & (
        old_list_of[at[reused]] == list_of[reused]
    )
    source = np.where(reused, at - old_starts[list_of], -1)
    fresh_at = np.flatnonzero(~reused)
    fresh = build_frame([listed[i] for i in fresh_at.tolist()], entity_kinds)
    # Each history's place in (old histories, fresh histories) end to end.
    at[fresh_at] = old.n_histories + np.arange(fresh_at.size)

    def per_history(column: str) -> np.ndarray:
        return np.concatenate((getattr(old, column), getattr(fresh, column)))[at]

    union_labels = sorted({*old.kind_labels, *fresh.kind_labels})
    label_code = {label: code for code, label in enumerate(union_labels)}
    codes = np.concatenate(
        (
            _code_table(old, label_code)[old.codes],
            _code_table(fresh, label_code)[fresh.codes],
        )
    )[at]
    n_raw = per_history("n_raw")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_raw, out=offsets[1:])
    gap_lengths = np.maximum(n_raw - 1, 0)
    gap_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(gap_lengths, out=gap_offsets[1:])

    def gather(columns: tuple[str, ...], bounds: str, lengths, out_bounds) -> list:
        # Segments live in (old column, fresh column) laid end to end;
        # one index array moves every segment to its place.
        old_bounds, fresh_bounds = getattr(old, bounds), getattr(fresh, bounds)
        begin = np.concatenate(
            (old_bounds[:-1], fresh_bounds[:-1] + old_bounds[-1])
        )[at]
        index = np.repeat(begin - out_bounds[:-1], lengths)
        index += np.arange(index.size, dtype=np.int64)
        return [
            np.concatenate((getattr(old, column), getattr(fresh, column)))[index]
            for column in columns
        ]

    records = gather(
        ("times_raw", "times_sorted", "durations_raw", "durations_sorted"),
        "offsets",
        n_raw,
        offsets,
    )
    (gaps,) = gather(("gaps",), "gap_offsets", gap_lengths, gap_offsets)
    travel_means = per_history("travel_means")

    # Cut each list's frame out, as arrays of its own.
    ends = np.cumsum(lengths).tolist()
    result = []
    for (first, last), entity_histories in zip(zip([0, *ends], ends), histories):
        r0, r1 = int(offsets[first]), int(offsets[last])
        g0, g1 = int(gap_offsets[first]), int(gap_offsets[last])
        entity_ids = [history.entity_id for history in entity_histories]
        labels = _kind_labels(entity_ids, entity_kinds)
        local = {label: code for code, label in enumerate(labels)}
        table = np.array(
            [*(local.get(label, -1) for label in union_labels), -1], dtype=np.int64
        )
        frame = ShardFrame(
            histories=list(entity_histories),
            hist_ids=hist_ids[first:last],
            entity_ids=entity_ids,
            kind_labels=labels,
            codes=table[codes[first:last]],
            n_interactions=live[first:last].copy(),
            n_raw=n_raw[first:last].copy(),
            offsets=offsets[first : last + 1] - r0,
            times_raw=records[0][r0:r1].copy(),
            times_sorted=records[1][r0:r1].copy(),
            durations_raw=records[2][r0:r1].copy(),
            durations_sorted=records[3][r0:r1].copy(),
            gaps=gaps[g0:g1].copy(),
            gap_offsets=gap_offsets[first : last + 1] - g0,
            travel_means=travel_means[first:last].copy(),
        )
        result.append((frame, source[first:last].copy()))
    return result


def slice_pools(
    frame: ShardFrame, start: int, stop: int, min_history_length: int = 2
) -> ProfilePools:
    """Per-kind profile pools of histories ``start:stop``, from the columns.

    Equal, kind by kind and value by value, to
    :func:`repro.fraud.profiles.collect_profile_pools` over the same
    histories: record-order durations, per-history counts, and the
    chronological gaps of histories long enough to contribute them.
    """
    pools = ProfilePools()
    codes = frame.codes[start:stop]
    counts = frame.n_interactions[start:stop]
    record_codes = np.repeat(codes, frame.n_raw[start:stop])
    eligible = counts >= min_history_length
    gap_codes = np.repeat(
        np.where(eligible, codes, -1), np.diff(frame.gap_offsets[start : stop + 1])
    )
    durations = frame.durations_raw[frame.offsets[start] : frame.offsets[stop]]
    gaps = frame.gaps[frame.gap_offsets[start] : frame.gap_offsets[stop]]
    for code in sorted(set(codes.tolist()) - {-1}):
        label = frame.kind_labels[code]
        mask = codes == code
        pools.n_histories[label] = int(mask.sum())
        pools.counts[label] = counts[mask].astype(np.float64)
        pools.durations[label] = durations[record_codes == code]
        if (mask & eligible).any():
            pools.gaps[label] = gaps[gap_codes == code]
    return pools


#: The pooled columns of a :class:`~repro.fraud.profiles.ProfilePools`.
POOL_FIELDS = ("gaps", "durations", "counts")


@dataclass
class KindPool:
    """One kind's profile pool, kept across cycles as per-entity fragments.

    Each entity's fragment (:func:`slice_pools` of its block) has a slot;
    every pooled column is the slots' values laid end to end, with each
    slot's length alongside.  A cycle swaps in only its dirty entities'
    fragments, with one concatenation per column.  Percentiles read the
    *multiset* of values (``np.percentile`` sorts), so slot order is
    unobservable: the profile equals the one built from all fragments
    at once.
    """

    kind: str
    entities: list[str] = field(default_factory=list)
    slot_of: dict[str, int] = field(default_factory=dict)
    values: dict[str, np.ndarray] = field(
        default_factory=lambda: {name: np.empty(0) for name in POOL_FIELDS}
    )
    lengths: dict[str, np.ndarray] = field(
        default_factory=lambda: {
            name: np.empty(0, dtype=np.int64) for name in POOL_FIELDS
        }
    )

    @property
    def n_histories(self) -> int:
        """One count per history: the pooled count column's size."""
        return int(self.values["counts"].size)

    def replace(self, fragments: dict[str, ProfilePools]) -> None:
        """Swap in these entities' fragments; new entities get new slots.
        An empty :class:`ProfilePools` empties an entity's slot."""
        for entity_id in sorted(fragments.keys() - self.slot_of.keys()):
            self.slot_of[entity_id] = len(self.entities)
            self.entities.append(entity_id)
        swapped = sorted((self.slot_of[entity_id], entity_id) for entity_id in fragments)
        for name in POOL_FIELDS:
            lengths = np.zeros(len(self.entities), dtype=np.int64)
            lengths[: self.lengths[name].size] = self.lengths[name]
            ends = np.cumsum(lengths)
            values = self.values[name]
            pieces: list[np.ndarray] = []
            cursor = 0
            for slot, entity_id in swapped:
                pieces.append(values[cursor : ends[slot] - lengths[slot]])
                fragment = getattr(fragments[entity_id], name).get(self.kind)
                fresh = np.asarray(
                    fragment if fragment is not None else (), dtype=np.float64
                )
                pieces.append(fresh)
                cursor = ends[slot]
                lengths[slot] = fresh.size
            pieces.append(values[cursor:])
            self.values[name] = np.concatenate(pieces)
            self.lengths[name] = lengths

    def pools(self) -> ProfilePools:
        """The pooled values as a one-kind :class:`ProfilePools`."""
        pools = ProfilePools(n_histories={self.kind: self.n_histories})
        for name in POOL_FIELDS:
            if self.values[name].size:
                getattr(pools, name)[self.kind] = self.values[name]
        return pools


@dataclass
class SignatureFold:
    """A multiset of group signatures, kept across cycles.

    Each signature (:func:`~repro.core.aggregation.group_signatures`) is
    one complex number: the quantized time is the real part and the
    rounded duration the imaginary part.  Complex order is lexicographic
    and complex equality is exact per part, as the row comparison of
    :func:`~repro.core.aggregation.deflate_groups_arrays` is, so the
    multiset is one sorted array of distinct keys with their
    multiplicities, and its size is that function's count over the same
    records.
    """

    keys: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.complex128))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))

    @property
    def n_distinct(self) -> int:
        return int(self.keys.size)


NO_SIGNATURES = np.empty(0, dtype=np.complex128)


def signature_keys(frame: ShardFrame, mask: np.ndarray) -> np.ndarray:
    """The signatures of the raw records of the histories in ``mask``."""
    if not mask.any():
        return NO_SIGNATURES
    records = np.repeat(mask, frame.n_raw)
    times, durations = group_signatures(
        frame.times_raw[records], frame.durations_raw[records]
    )
    keys = np.empty(times.size, dtype=np.complex128)
    keys.real = times
    keys.imag = durations
    return keys


def fold_signatures(
    fold: SignatureFold, added: np.ndarray, dropped: np.ndarray
) -> SignatureFold:
    """``fold`` plus the signatures ``added``, minus those ``dropped``.

    The result must hold no key a negative number of times: a drop the
    fold cannot match means a history left the fold other than the way
    it entered, which this refuses rather than mis-count.
    """
    if not added.size and not dropped.size:
        return fold
    values, inverse = np.unique(np.concatenate((added, dropped)), return_inverse=True)
    net = np.bincount(inverse[: added.size], minlength=values.size) - np.bincount(
        inverse[added.size :], minlength=values.size
    )
    keys, counts = fold.keys, fold.counts
    at = np.searchsorted(keys, values)
    held = keys[np.minimum(at, keys.size - 1)] == values if keys.size else at < 0
    moved = counts.copy()
    moved[at[held]] += net[held].astype(counts.dtype)
    new = np.flatnonzero(~held & (net != 0))
    if new.size:
        # Merge the new keys in: each lands after the old keys below it
        # and the new keys before it.
        slots = at[new] + np.arange(new.size)
        old_slots = np.ones(keys.size + new.size, dtype=bool)
        old_slots[slots] = False
        merged_keys = np.empty(old_slots.size, dtype=keys.dtype)
        merged_keys[old_slots] = keys
        merged_keys[slots] = values[new]
        merged_counts = np.empty(old_slots.size, dtype=counts.dtype)
        merged_counts[old_slots] = moved
        merged_counts[slots] = net[new]
        keys, moved = merged_keys, merged_counts
    if moved.min(initial=0) < 0:
        raise ValueError("dropped a group signature the fold does not hold")
    live = moved > 0
    if not live.all():
        keys, moved = keys[live], moved[live]
    return SignatureFold(keys=keys, counts=moved)


def carry_fold(
    old: ShardFrame, folded: np.ndarray, source: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Carry a fold's membership across :func:`splice_frames`.

    ``folded`` marks the histories of ``old`` whose records the fold
    holds, and ``source`` is what :func:`splice_frames` returned for the
    new frame.  A reused history keeps its mark; a history whose segment
    was not reused (it changed, or is gone) leaves with its old records.
    Returns the new frame's marks and the signatures still to drop.
    """
    reused = source >= 0
    carried = np.zeros(source.size, dtype=bool)
    carried[reused] = folded[source[reused]]
    leaving = folded.copy()
    leaving[source[reused]] = False
    return carried, signature_keys(old, leaving)


def refold(
    fold: SignatureFold,
    frame: ShardFrame,
    folded: np.ndarray,
    keep: np.ndarray,
    unfolded: np.ndarray,
) -> SignatureFold:
    """The fold of the records of the histories ``keep`` marks.

    ``fold`` holds the records of the histories ``folded`` marks, plus
    the signatures ``unfolded`` (old segments :func:`carry_fold` let go).
    A verdict flip moves a whole history in or out; only the histories
    whose mark changed, and ``unfolded``, are touched.
    """
    return fold_signatures(
        fold,
        signature_keys(frame, keep & ~folded),
        np.concatenate((unfolded, signature_keys(frame, folded & ~keep))),
    )


def summarize_block(
    frame: ShardFrame,
    entity_id: str,
    keep: np.ndarray,
    claims: np.ndarray,
    ratings: np.ndarray,
    fold: SignatureFold,
    explicit_ratings: list[float],
) -> EntityOpinionSummary:
    """``entity_id``'s summary from its frame block.

    ``keep`` marks the histories that survived the fraud filter and
    ``fold`` must hold exactly their records' signatures.  ``claims``
    marks the histories whose opinion slot claims ``entity_id`` and
    ``ratings`` holds those slots' ratings.  A kept, claiming history's
    opinion counts, weighted by the history's depth, in block
    (history-id) order — the same value as
    :func:`repro.core.aggregation.summarize_entity` over the kept
    histories and their opinions.
    """
    counted = keep & claims
    weights = [influence_weight(n) for n in frame.n_interactions[counted].tolist()]
    return summarize_entity_from_parts(
        entity_id=entity_id,
        n_histories=int(np.count_nonzero(keep)),
        raw_interactions=int(frame.n_raw[keep].sum()),
        effective_interactions=float(fold.n_distinct),
        kept=list(zip(ratings[counted].tolist(), weights)),
        explicit_ratings=explicit_ratings,
    )


def block_panels(frame: ShardFrame, entity_id: str, keep: np.ndarray) -> EntityPanels:
    """Both Figure 3 panels of the kept histories of an entity's frame
    block — :func:`~repro.core.visualization.entity_panels` over them."""
    return panels_from_columns(
        entity_id, frame.n_interactions[keep], frame.travel_means[keep]
    )


@dataclass
class FrameJudgement:
    """The verdicts on one frame: who is suspicious, and why."""

    #: Per-history suspicion mask, frame order.
    suspicious: np.ndarray
    #: Verdicts for the suspicious histories, frame order.
    verdicts: list[HistoryVerdict] = field(default_factory=list)


def judge_frame(
    frame: ShardFrame,
    profiles: dict[str, TypicalProfile],
    config: DetectorConfig | None = None,
) -> FrameJudgement:
    """Apply the fraud detector's exact flag logic columnarly."""
    config = config or DetectorConfig()
    n = frame.n_histories
    if n == 0:
        return FrameJudgement(suspicious=np.zeros(0, dtype=bool))

    counts_f = frame.n_interactions.astype(np.float64)
    judged = frame.n_interactions >= config.min_interactions_to_judge

    has_profile = np.zeros(n, dtype=bool)
    gaps_p01 = np.zeros(n, dtype=np.float64)
    durations_p01 = np.zeros(n, dtype=np.float64)
    counts_median = np.zeros(n, dtype=np.float64)
    counts_p99 = np.zeros(n, dtype=np.float64)
    rate_ceiling = np.zeros(n, dtype=np.float64)
    for code, label in enumerate(frame.kind_labels):
        profile = profiles.get(label)
        if profile is None:
            continue
        mask = frame.codes == code
        has_profile[mask] = True
        gaps_p01[mask] = profile.gaps.p01
        durations_p01[mask] = profile.durations.p01
        counts_median[mask] = profile.counts.median
        counts_p99[mask] = profile.counts.p99
        # Same scalar expression the detector evaluates per history.
        rate_ceiling[mask] = profile.counts.p99 / max(profile.gaps.median, DAY)
    judged &= has_profile

    # Histories with no raw records cannot be laid out (their time span is
    # undefined); route them through the scalar detector verbatim.  The
    # store's append path makes them unreachable, but the kernel must not
    # silently mis-judge them if that ever changes.
    degenerate = frame.n_raw == 0
    judged_vec = judged & ~degenerate

    suspicious = np.zeros(n, dtype=bool)
    verdict_at: dict[int, HistoryVerdict] = {}

    total = int(frame.offsets[-1])
    if total:
        starts = frame.offsets[:-1]
        last_index = np.clip(frame.offsets[1:] - 1, 0, total - 1)
        first = frame.times_sorted[np.clip(starts, 0, total - 1)]
        last = frame.times_sorted[last_index]
        span = np.maximum(last - first, DAY)
        rate = counts_f / span

        lo = np.clip(starts + (frame.n_raw - 1) // 2, 0, total - 1)
        hi = np.clip(starts + frame.n_raw // 2, 0, total - 1)
        median_duration = (
            frame.durations_sorted[lo] + frame.durations_sorted[hi]
        ) / 2.0

        gap_counts = np.diff(frame.gap_offsets)
        has_gaps = frame.n_raw >= 2
        positive = frame.gaps > 0
        min_positive = np.full(n, np.inf)
        positive_count = np.zeros(n, dtype=np.int64)
        nonempty = np.nonzero(gap_counts > 0)[0]
        if nonempty.size:
            # Empty gap segments collapse to equal consecutive offsets, so
            # reduceat over the non-empty starts spans each segment exactly.
            gap_starts = frame.gap_offsets[nonempty]
            min_positive[nonempty] = np.minimum.reduceat(
                np.where(positive, frame.gaps, np.inf), gap_starts
            )
            positive_count[nonempty] = np.add.reduceat(
                positive.astype(np.int64), gap_starts
            )

        no_positive = positive_count == 0
        burst = has_gaps & (no_positive | (min_positive < gaps_p01))
        rate_flag = (rate > rate_ceiling) & (counts_f > counts_median)
        short = median_duration < durations_p01
        volume = counts_f > counts_p99

        regularity = np.zeros(n, dtype=bool)
        candidate_mask = (
            judged_vec
            & (gap_counts + 1 >= config.regularity_min_interactions)
            & (positive_count > 0)
        )
        if candidate_mask.any() and nonempty.size:
            # Prefilter: the exact per-candidate loop below is the only
            # Python-rate cost of this kernel, so screen candidates with a
            # vectorized mean/cv estimate first.  The estimate uses
            # sequential (reduceat) sums where the exact path uses NumPy's
            # pairwise mean/std — those differ by ~1e-12 relative at most,
            # while the acceptance margin below is 25% of each threshold,
            # so the prefilter can only ever pass extra candidates to the
            # exact check, never hide a true one.  Flags are still decided
            # exclusively by the exact loop.
            pos_vals = np.where(positive, frame.gaps, 0.0)
            seg_sum = np.zeros(n, dtype=np.float64)
            seg_sumsq = np.zeros(n, dtype=np.float64)
            seg_sum[nonempty] = np.add.reduceat(pos_vals, gap_starts)
            seg_sumsq[nonempty] = np.add.reduceat(pos_vals * pos_vals, gap_starts)
            counts_pos = np.maximum(positive_count, 1).astype(np.float64)
            mean_est = seg_sum / counts_pos
            var_est = np.maximum(seg_sumsq / counts_pos - mean_est * mean_est, 0.0)
            safe_mean = np.where(mean_est > 0, mean_est, 1.0)
            cv_est = np.where(mean_est > 0, np.sqrt(var_est) / safe_mean, 0.0)
            margin = 1.25
            maybe = (cv_est < config.regularity_cv_threshold * margin) | (
                (np.abs(mean_est - DAY) < config.daily_gap_tolerance * DAY * margin)
                & (cv_est < 0.5 * margin)
            )
            candidate_mask &= maybe
        candidates = np.nonzero(candidate_mask)[0]
        for i in candidates:
            segment = frame.gaps[frame.gap_offsets[i] : frame.gap_offsets[i + 1]]
            gap_array = segment[segment > 0]
            mean_gap = float(gap_array.mean())
            cv = float(gap_array.std() / mean_gap) if mean_gap > 0 else 0.0
            metronomic = cv < config.regularity_cv_threshold
            daily = (
                abs(mean_gap - DAY) < config.daily_gap_tolerance * DAY and cv < 0.5
            )
            if metronomic or daily:
                regularity[i] = True

        flagged = judged_vec & (burst | rate_flag | short | regularity | volume)
        flag_columns = (
            (burst, FraudFlag.BURST),
            (rate_flag, FraudFlag.RATE),
            (short, FraudFlag.SHORT_DURATION),
            (regularity, FraudFlag.REGULARITY),
            (volume, FraudFlag.VOLUME),
        )
        for i in np.nonzero(flagged)[0]:
            index = int(i)
            suspicious[index] = True
            verdict_at[index] = HistoryVerdict(
                history_id=frame.hist_ids[index],
                entity_id=frame.entity_ids[index],
                n_interactions=int(frame.n_interactions[index]),
                flags=tuple(flag for column, flag in flag_columns if column[index]),
                judged=True,
            )

    fallback_indices = np.nonzero(degenerate & judged)[0]
    if fallback_indices.size:
        kinds = {
            frame.entity_ids[int(i)]: frame.kind_labels[int(frame.codes[int(i)])]
            for i in fallback_indices
            if int(frame.codes[int(i)]) >= 0
        }
        detector = FraudDetector(profiles, kinds, config)
        for i in fallback_indices:
            index = int(i)
            verdict = detector.judge(frame.histories[index])
            if verdict.suspicious:
                suspicious[index] = True
                verdict_at[index] = verdict

    verdicts = [verdict_at[index] for index in sorted(verdict_at)]
    return FrameJudgement(suspicious=suspicious, verdicts=verdicts)
