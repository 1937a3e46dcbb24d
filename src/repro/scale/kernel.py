"""Columnar maintenance kernel: bit-identical, vectorized fraud analysis.

The scalar :class:`~repro.fraud.detector.FraudDetector` walks the
store history-by-history, paying Python-level attribute access and many
small NumPy calls per history.  This kernel lays a shard's histories out
as a :class:`ShardFrame` — contiguous per-record arrays with per-history
segment offsets — and computes the same features with segment-wise array
reductions.

Equivalence with the scalar detector is a *bitwise* contract, argued
operation by operation:

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
  summation visits the same addition tree.

``tests/scale`` enforces the contract differentially; docs/SCALING.md
records it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.aggregation import (
    EntityOpinionSummary,
    OpinionUpload,
    influence_weight,
    summarize_entity_from_parts,
)
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
    """One shard's histories in columnar form.

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

    @property
    def n_histories(self) -> int:
        return len(self.histories)


def build_frame(
    histories: list[InteractionHistory], entity_kinds: dict[str, str]
) -> ShardFrame:
    """Lay ``histories`` out as contiguous feature arrays."""
    n = len(histories)
    hist_ids = [h.history_id for h in histories]
    entity_ids = [h.entity_id for h in histories]
    kind_labels = sorted(
        {
            kind
            for kind in (entity_kinds.get(eid) for eid in set(entity_ids))
            if kind is not None
        }
    )
    label_code = {label: code for code, label in enumerate(kind_labels)}
    codes = np.fromiter(
        (label_code.get(entity_kinds.get(eid), -1) for eid in entity_ids),
        dtype=np.int64,
        count=n,
    )
    n_interactions = np.fromiter(
        (h.n_interactions for h in histories), dtype=np.int64, count=n
    )
    n_raw = np.fromiter((len(h.records) for h in histories), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_raw, out=offsets[1:])
    total = int(offsets[-1])

    times = np.fromiter(
        (r.upload.event_time for h in histories for r in h.records),
        dtype=np.float64,
        count=total,
    )
    durations_raw = np.fromiter(
        (r.upload.duration for h in histories for r in h.records),
        dtype=np.float64,
        count=total,
    )
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
    )


def collect_pools(frame: ShardFrame, min_history_length: int = 2) -> ProfilePools:
    """Pool per-kind feature values from a frame, vectorized.

    Pools the exact same float values as
    :func:`repro.fraud.profiles.collect_profile_pools` over the same
    histories — only the collection order differs, which the sort-based
    percentile reduction cannot observe.
    """
    pools = ProfilePools()
    if frame.n_histories == 0:
        return pools
    counts_f = frame.n_interactions.astype(np.float64)
    record_codes = np.repeat(frame.codes, frame.n_raw)
    gap_counts = np.diff(frame.gap_offsets)
    gap_codes = np.repeat(frame.codes, gap_counts)
    gap_eligible = np.repeat(frame.n_interactions >= min_history_length, gap_counts)
    for code, label in enumerate(frame.kind_labels):
        history_mask = frame.codes == code
        if not history_mask.any():
            continue
        pools.n_histories[label] = int(history_mask.sum())
        pools.counts[label] = counts_f[history_mask]
        pools.durations[label] = frame.durations_raw[record_codes == code]
        kind_gaps = frame.gaps[(gap_codes == code) & gap_eligible]
        if kind_gaps.size:
            pools.gaps[label] = kind_gaps
    return pools


@dataclass
class FrameJudgement:
    """Phase-B output for one shard: who is suspicious, and why."""

    #: Per-history suspicion mask, frame order.
    suspicious: np.ndarray
    #: Verdicts for the suspicious histories, frame order.
    verdicts: list[HistoryVerdict] = field(default_factory=list)


def judge_frame(
    frame: ShardFrame,
    profiles: dict[str, TypicalProfile],
    config: DetectorConfig | None = None,
) -> FrameJudgement:
    """Phase B: apply the fraud detector's exact flag logic columnarly."""
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


@dataclass
class GatherFrame:
    """All shards' frames concatenated, with entity/partition codes.

    Built once per maintenance cycle (and cached by store version) in the
    *parent* process, before any worker forks — so the summarization
    phase reads nothing but these flat arrays.  Entity codes index into
    ``entity_order`` (sorted entity ids), which makes ``sorted(codes)``
    identical to sorting by entity id.
    """

    entity_order: list[str]
    entity_code: dict[str, int]
    #: Partition (= ``router.shard_of(entity_id)``) per entity code.
    entity_part: np.ndarray
    hist_ids: list[str]
    hist_entcode: np.ndarray
    hist_part: np.ndarray
    n_interactions: np.ndarray
    n_raw: np.ndarray
    #: Record-order event times / durations, all shards concatenated.
    times: np.ndarray
    durations: np.ndarray
    rec_entcode: np.ndarray
    rec_part: np.ndarray
    #: Opinions whose history exists in the co-located store (the
    #: existence check is shard-local because opinions share their
    #: history's record key).
    op_hist_ids: list[str]
    op_entcode: np.ndarray
    op_ratings: np.ndarray
    op_part: np.ndarray


def build_gather(
    frames: list[ShardFrame],
    opinions_by_shard: list[Mapping[str, OpinionUpload]],
    shard_of: Callable[[str], int],
    catalog_entity_ids: Iterable[str],
) -> GatherFrame:
    """Concatenate per-shard frames into one summarization-ready view."""
    ids = set(catalog_entity_ids)
    for frame in frames:
        ids.update(frame.entity_ids)
    for opinions in opinions_by_shard:
        ids.update(opinion.entity_id for opinion in opinions.values())
    entity_order = sorted(ids)
    entity_code = {entity_id: code for code, entity_id in enumerate(entity_order)}
    entity_part = np.fromiter(
        (shard_of(entity_id) for entity_id in entity_order),
        dtype=np.int64,
        count=len(entity_order),
    )

    hist_ids = [hist_id for frame in frames for hist_id in frame.hist_ids]
    hist_entcode = np.fromiter(
        (entity_code[eid] for frame in frames for eid in frame.entity_ids),
        dtype=np.int64,
        count=len(hist_ids),
    )
    n_interactions = np.concatenate([frame.n_interactions for frame in frames])
    n_raw = np.concatenate([frame.n_raw for frame in frames])
    times = np.concatenate([frame.times_raw for frame in frames])
    durations = np.concatenate([frame.durations_raw for frame in frames])
    hist_part = entity_part[hist_entcode] if len(hist_ids) else np.zeros(0, np.int64)
    rec_entcode = np.repeat(hist_entcode, n_raw)
    rec_part = entity_part[rec_entcode] if rec_entcode.size else np.zeros(0, np.int64)

    op_hist_ids: list[str] = []
    op_entcodes: list[int] = []
    op_ratings: list[float] = []
    for frame, opinions in zip(frames, opinions_by_shard):
        known = set(frame.hist_ids)
        for hist_id, opinion in opinions.items():
            if hist_id in known:
                op_hist_ids.append(hist_id)
                op_entcodes.append(entity_code[opinion.entity_id])
                op_ratings.append(opinion.rating)
    op_entcode = np.asarray(op_entcodes, dtype=np.int64)
    op_part = entity_part[op_entcode] if op_entcode.size else np.zeros(0, np.int64)

    return GatherFrame(
        entity_order=entity_order,
        entity_code=entity_code,
        entity_part=entity_part,
        hist_ids=hist_ids,
        hist_entcode=hist_entcode,
        hist_part=hist_part,
        n_interactions=n_interactions,
        n_raw=n_raw,
        times=times,
        durations=durations,
        rec_entcode=rec_entcode,
        rec_part=rec_part,
        op_hist_ids=op_hist_ids,
        op_entcode=op_entcode,
        op_ratings=np.asarray(op_ratings, dtype=np.float64),
        op_part=op_part,
    )


def summarize_partition_frame(
    gather: GatherFrame,
    partition: int,
    rejected_ids: frozenset[str],
    reviews: Mapping[str, list],
) -> list[EntityOpinionSummary]:
    """Phase C for one entity partition, from the gathered columns.

    Bit-identical to the monolithic loop because every order-dependent
    reduction sees its canonical order: entities are visited in sorted
    order (entity codes sort like entity ids), each entity's kept
    opinions are sorted by history id before the weight sum, and the
    group-deflation signature count is multiset-invariant
    (:func:`~repro.core.aggregation.deflate_groups_arrays` sorts), so the
    shard-concatenated record order cannot leak through.
    """
    n_hist = len(gather.hist_ids)
    if rejected_ids:
        keep = np.fromiter(
            (hist_id not in rejected_ids for hist_id in gather.hist_ids),
            dtype=bool,
            count=n_hist,
        )
    else:
        keep = np.ones(n_hist, dtype=bool)
    sel_hist = keep & (gather.hist_part == partition)
    rec_keep = np.repeat(keep, gather.n_raw) & (gather.rec_part == partition)
    times_sel = gather.times[rec_keep]
    durations_sel = gather.durations[rec_keep]
    rec_codes = gather.rec_entcode[rec_keep]

    n_entities = len(gather.entity_order)
    hist_counts = np.bincount(gather.hist_entcode[sel_hist], minlength=n_entities)
    raw_counts = np.bincount(rec_codes, minlength=n_entities)

    depth_by_entity: dict[int, dict[str, int]] = {}
    for i in np.nonzero(sel_hist)[0]:
        index = int(i)
        depth_by_entity.setdefault(int(gather.hist_entcode[index]), {})[
            gather.hist_ids[index]
        ] = int(gather.n_interactions[index])

    ops_by_entity: dict[int, list[tuple[str, float]]] = {}
    for j in np.nonzero(gather.op_part == partition)[0]:
        index = int(j)
        hist_id = gather.op_hist_ids[index]
        if hist_id in rejected_ids:
            continue
        ops_by_entity.setdefault(int(gather.op_entcode[index]), []).append(
            (hist_id, float(gather.op_ratings[index]))
        )

    entity_codes = (
        {int(code) for code in np.unique(gather.hist_entcode[sel_hist])}
        | set(ops_by_entity)
        | {gather.entity_code[entity_id] for entity_id in reviews}
    )
    summaries: list[EntityOpinionSummary] = []
    for code in sorted(entity_codes):
        entity_id = gather.entity_order[code]
        mask = rec_codes == code
        depths = depth_by_entity.get(code, {})
        kept: list[tuple[float, float]] = []
        for hist_id, rating in sorted(ops_by_entity.get(code, ())):
            depth = depths.get(hist_id)
            if depth is None:
                continue
            kept.append((rating, influence_weight(depth)))
        summaries.append(
            summarize_entity_from_parts(
                entity_id=entity_id,
                n_histories=int(hist_counts[code]),
                raw_interactions=int(raw_counts[code]),
                times=times_sel[mask],
                durations=durations_sel[mask],
                kept=kept,
                explicit_ratings=[
                    float(review.rating) for review in reviews.get(entity_id, [])
                ],
            )
        )
    return summaries

def kept_counts(
    gather: GatherFrame, rejected_ids: frozenset[str]
) -> dict[str, int]:
    """Surviving opinion slots per *owner* entity, from the gathered columns.

    ``op_hist_ids`` only lists slots whose history is stored (the
    existence check in :func:`build_gather`), so a slot survives iff its
    history was not rejected; the owner is the entity the history is
    bound to, read off ``hist_entcode``.  This refreshes the incremental
    engine's per-owner kept cache after a kernel (full) cycle, so a later
    incremental cycle flips from the right baseline.
    """
    owner_code = dict(zip(gather.hist_ids, gather.hist_entcode.tolist()))
    counts: dict[str, int] = {}
    for hist_id in gather.op_hist_ids:
        if hist_id in rejected_ids:
            continue
        entity_id = gather.entity_order[owner_code[hist_id]]
        counts[entity_id] = counts.get(entity_id, 0) + 1
    return counts
