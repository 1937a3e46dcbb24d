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
* summary columns are the kept histories' records in history order,
  handed to :func:`~repro.core.aggregation.summarize_entity_from_parts`,
  the one place the summary math lives.

``tests/scale/test_kernel_spec.py`` checks the contract against the
scalar spec; docs/SCALING.md records it.
"""

from __future__ import annotations

from collections.abc import Sequence
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
        # The trailing -1 is what an unknown kind's code (-1) indexes.
        remap = [label_code[label] for label in frame.kind_labels]
        codes.append(np.array([*remap, -1], dtype=np.int64)[frame.codes])

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
    )


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


def summarize_slice(
    frame: ShardFrame,
    entity_id: str,
    start: int,
    stop: int,
    keep: np.ndarray,
    opinions: Sequence[OpinionUpload | None],
    explicit_ratings: list[float],
) -> EntityOpinionSummary:
    """``entity_id``'s summary from the kept histories among ``start:stop``.

    ``keep`` is a frame-length mask of the histories that survived the
    fraud filter; ``opinions`` holds each frame history's opinion slot
    (``None`` when empty).  A kept history's opinion counts when it
    claims ``entity_id``, weighted by the history's depth, in frame
    (history-id) order — the same value as
    :func:`repro.core.aggregation.summarize_entity` over the kept
    histories and their opinions.
    """
    kept_mask = keep[start:stop]
    kept_index = (start + np.flatnonzero(kept_mask)).tolist()
    kept: list[tuple[float, float]] = []
    for index in kept_index:
        opinion = opinions[index]
        if opinion is not None and opinion.entity_id == entity_id:
            kept.append(
                (opinion.rating, influence_weight(int(frame.n_interactions[index])))
            )
    records = slice(int(frame.offsets[start]), int(frame.offsets[stop]))
    record_keep = np.repeat(kept_mask, frame.n_raw[start:stop])
    return summarize_entity_from_parts(
        entity_id=entity_id,
        n_histories=len(kept_index),
        raw_interactions=int(frame.n_raw[start:stop][kept_mask].sum()),
        times=frame.times_raw[records][record_keep],
        durations=frame.durations_raw[records][record_keep],
        kept=kept,
        explicit_ratings=explicit_ratings,
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
