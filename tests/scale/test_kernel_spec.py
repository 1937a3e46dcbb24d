"""The columnar kernel against its scalar spec, history by history.

Maintenance judges, profiles and summarizes from one columnar frame
(:mod:`repro.scale.kernel`).  The scalar functions stay the spec:
:meth:`FraudDetector.judge`, :func:`collect_profile_pools` and
:func:`summarize_entity`.  Over mixed-kind histories — unknown kinds,
single-record and record-less (fully folded) histories, bursts, and gap
patterns whose coefficient of variation or mean sits on a REGULARITY
threshold, where the kernel's vectorized prefilter and its exact check
could disagree — the kernel must reproduce the spec exactly:

* ``judge_frame(build_frame(hs))`` flags the histories the detector
  flags, with the same verdicts;
* ``slice_pools`` over a frame slice pools the values
  ``collect_profile_pools`` pools over the same histories;
* ``summarize_slice`` over an entity's slice equals ``summarize_entity``
  over its kept histories;
* ``concat_frames`` over per-entity frame blocks equals ``build_frame``
  over the same histories, column by column.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import OpinionUpload, summarize_entity
from repro.fraud.detector import DetectorConfig, FraudDetector
from repro.fraud.profiles import collect_profile_pools, profiles_from_pools
from repro.privacy.history_store import (
    FoldedStats,
    InteractionHistory,
    InteractionUpload,
    StoredRecord,
)
from repro.scale.kernel import (
    ShardFrame,
    build_frame,
    concat_frames,
    judge_frame,
    slice_pools,
    summarize_slice,
)
from repro.util.clock import DAY, HOUR
from repro.util.rng import make_rng

#: Two known kinds; ``e4`` and ``e5`` have no kind (profiling skips them).
KINDS = {"e0": "cafe", "e1": "cafe", "e2": "dentist", "e3": "dentist"}
ENTITIES = ("e0", "e1", "e2", "e3", "e4", "e5")
CONFIGS = (
    DetectorConfig(),
    DetectorConfig(min_interactions_to_judge=2, regularity_min_interactions=4),
)


def gaps_on_threshold(z: np.ndarray, mean: float, cv: float) -> list[float]:
    """Gaps with mean ``mean`` and coefficient of variation ``cv``, up to
    rounding — the rounding is what decides which side of a threshold
    they land on."""
    return (mean + (z - z.mean()) / z.std() * cv * mean).tolist()


@st.composite
def gap_patterns(draw) -> list[float]:
    n = draw(st.integers(0, 11))
    shape = draw(st.sampled_from(["random", "burst", "metronomic", "daily"]))
    if shape == "random":
        return draw(st.lists(st.floats(0.0, 30 * DAY), min_size=n, max_size=n))
    if shape == "burst":
        return [draw(st.sampled_from([0.0, 1.0, 60.0])) for _ in range(n)]
    n = max(n, 3)
    seed = draw(st.integers(0, 2**32 - 1))
    z = np.random.default_rng(seed).normal(size=n)
    if z.std() == 0.0:
        return [HOUR] * n
    margin = draw(st.sampled_from([1.0, 1.25]))
    if shape == "metronomic":
        mean = draw(st.sampled_from([600.0, 3 * HOUR, 7 * DAY]))
        return gaps_on_threshold(z, mean, 0.15 * margin)
    offset = draw(st.sampled_from([-1.0, 1.0])) * 0.15 * margin
    cv = draw(st.sampled_from([0.1, 0.5, 0.5 * margin]))
    return gaps_on_threshold(z, DAY * (1.0 + offset), cv)


def make_history(
    history_id: str, entity_id: str, gaps: list[float], t0: float, order, durations, folded: int
) -> InteractionHistory:
    times = np.cumsum([t0, *gaps]).tolist()
    records = [
        StoredRecord(
            upload=InteractionUpload(
                history_id=history_id,
                entity_id=entity_id,
                interaction_type="visit",
                event_time=times[index],
                duration=durations[index],
                travel_km=1.0,
            ),
            arrival_time=times[index],
        )
        for index in order
    ]
    return InteractionHistory(
        history_id=history_id,
        entity_id=entity_id,
        records=records,
        folded=FoldedStats(n=folded) if folded else None,
    )


@st.composite
def histories(draw) -> list[InteractionHistory]:
    result = []
    for index in range(draw(st.integers(1, 12))):
        entity_id = draw(st.sampled_from(ENTITIES))
        if draw(st.integers(0, 9)) == 0:
            # No raw records at all: every interaction folded away.
            gaps, n_records = [], 0
        else:
            gaps = draw(gap_patterns())
            n_records = len(gaps) + 1
        order = draw(st.permutations(range(n_records)))
        durations = draw(
            st.lists(
                st.sampled_from([5.0, 30.0, 1800.0, 3600.0]) | st.floats(0.0, 4 * HOUR),
                min_size=n_records,
                max_size=n_records,
            )
        )
        t0 = draw(st.sampled_from([0.0, 1e6, 3.3e7]))
        folded = draw(st.integers(0, 4))
        if n_records == 0:
            folded = draw(st.integers(0, 6))
        result.append(
            make_history(f"h{index:02d}", entity_id, gaps, t0, order, durations, folded)
        )
    return result


def canonical(hs: list[InteractionHistory]) -> list[InteractionHistory]:
    """Entity order, then history-id order — the maintenance frame's order."""
    return sorted(hs, key=lambda history: (history.entity_id, history.history_id))


def entity_slices(hs: list[InteractionHistory]):
    start = 0
    while start < len(hs):
        stop = start
        while stop < len(hs) and hs[stop].entity_id == hs[start].entity_id:
            stop += 1
        yield hs[start].entity_id, start, stop
        start = stop


def profiles_for(hs: list[InteractionHistory]):
    return profiles_from_pools(collect_profile_pools(hs, KINDS))


def assert_judged_like_the_detector(hs, profiles, config) -> None:
    judgement = judge_frame(build_frame(hs, KINDS), profiles, config)
    detector = FraudDetector(profiles, KINDS, config)
    expected = [detector.judge(history) for history in hs]
    assert judgement.suspicious.tolist() == [verdict.suspicious for verdict in expected]
    assert judgement.verdicts == [verdict for verdict in expected if verdict.suspicious]


def same_pools(actual, expected) -> bool:
    if actual.n_histories != expected.n_histories:
        return False
    for name in ("gaps", "durations", "counts"):
        ours, theirs = getattr(actual, name), getattr(expected, name)
        if ours.keys() != theirs.keys():
            return False
        for kind in theirs:
            if [float(value) for value in ours[kind]] != list(theirs[kind]):
                return False
    return True


@settings(max_examples=80, deadline=None)
@given(
    hs=histories(),
    config=st.sampled_from(CONFIGS),
    baseline=histories(),
)
def test_frame_verdicts_equal_the_detector(hs, config, baseline):
    """Judged against profiles built from the histories themselves and
    against an independent baseline's profiles."""
    hs = canonical(hs)
    assert_judged_like_the_detector(hs, profiles_for(hs), config)
    assert_judged_like_the_detector(hs, profiles_for(baseline), config)


@settings(max_examples=50, deadline=None)
@given(hs=histories(), bounds=st.tuples(st.integers(0, 12), st.integers(0, 12)))
def test_frame_slices_pool_like_collect_profile_pools(hs, bounds):
    hs = canonical(hs)
    frame = build_frame(hs, KINDS)
    slices = [(start, stop) for _entity_id, start, stop in entity_slices(hs)]
    slices.append(tuple(sorted(min(bound, len(hs)) for bound in bounds)))
    for start, stop in slices:
        expected = collect_profile_pools(hs[start:stop], KINDS)
        assert same_pools(slice_pools(frame, start, stop), expected)


@settings(max_examples=50, deadline=None)
@given(
    hs=histories(),
    slots=st.lists(
        st.tuples(st.sampled_from([None, "own", "other"]), st.integers(0, 10)),
        min_size=12,
        max_size=12,
    ),
    explicit=st.lists(st.integers(1, 5), max_size=3),
)
def test_frame_summaries_equal_summarize_entity(hs, slots, explicit):
    """Each history's slot is empty or holds an opinion claiming its own
    entity or another one; only kept, self-claiming opinions count."""
    hs = canonical(hs)
    frame = build_frame(hs, KINDS)
    keep = ~judge_frame(frame, profiles_for(hs), CONFIGS[0]).suspicious
    opinions = []
    for history, (claim, rating) in zip(hs, slots):
        if claim is None:
            opinions.append(None)
            continue
        entity_id = history.entity_id if claim == "own" else "elsewhere"
        opinions.append(
            OpinionUpload(history_id=history.history_id, entity_id=entity_id, rating=rating / 2)
        )
    ratings = [float(rating) for rating in explicit]
    for entity_id, start, stop in entity_slices(hs):
        kept = [hs[index] for index in range(start, stop) if keep[index]]
        inferred = [
            opinion
            for opinion in opinions[start:stop]
            if opinion is not None and opinion.entity_id == entity_id
        ]
        expected = summarize_entity(entity_id, kept, inferred, ratings)
        actual = summarize_slice(frame, entity_id, start, stop, keep, opinions, ratings)
        assert repr(actual) == repr(expected)


def test_cv_threshold_sweep():
    """Many histories whose gap cv sits on the metronomic threshold, up to
    rounding: the prefilter must pass every one the exact check flags."""
    rng = make_rng(2016, "tests/scale/kernel-spec/sweep")
    hs = []
    for index in range(300):
        z = rng.normal(size=int(rng.integers(7, 12)))
        gaps = gaps_on_threshold(z, float(rng.choice([600.0, 3 * HOUR, 7 * DAY])), 0.15)
        order = list(range(len(gaps) + 1))
        hs.append(make_history(f"s{index:03d}", "e0", gaps, 0.0, order, [1800.0] * len(order), 0))
    profiles = profiles_for(hs)
    detector = FraudDetector(profiles, KINDS)
    assert any(detector.judge(history).suspicious for history in hs)
    assert_judged_like_the_detector(hs, profiles, DetectorConfig())


def assert_same_frame(actual: ShardFrame, expected: ShardFrame) -> None:
    """Column by column: equal lists, and arrays of one dtype and bytes."""
    for column in dataclasses.fields(ShardFrame):
        ours, theirs = getattr(actual, column.name), getattr(expected, column.name)
        if isinstance(theirs, np.ndarray):
            assert ours.dtype == theirs.dtype, column.name
            assert ours.shape == theirs.shape, column.name
            assert ours.tobytes() == theirs.tobytes(), column.name
        else:
            assert ours == theirs, column.name
    assert all(a is b for a, b in zip(actual.histories, expected.histories))


@settings(max_examples=80, deadline=None)
@given(hs=histories(), cuts=st.lists(st.integers(0, 12), max_size=4))
def test_frame_blocks_concatenate_to_the_whole_frame(hs, cuts):
    """Per-entity blocks (each with its own, differing ``kind_labels``;
    unknown kinds code -1), and blocks cut at arbitrary points, some of
    them empty, stack to the frame built over all their histories."""
    hs = canonical(hs)
    expected = build_frame(hs, KINDS)
    per_entity = [build_frame(hs[start:stop], KINDS) for _eid, start, stop in entity_slices(hs)]
    actual = concat_frames(per_entity)
    assert_same_frame(actual, expected)
    bounds = [0, *sorted(min(cut, len(hs)) for cut in cuts), len(hs)]
    pieces = [build_frame(hs[start:stop], KINDS) for start, stop in zip(bounds, bounds[1:])]
    assert_same_frame(concat_frames(pieces), expected)
    # The stacked frame owns its columns: a kept block pins none of them.
    for block in per_entity:
        for column in ("codes", "n_raw", "times_raw", "times_sorted", "durations_raw", "gaps"):
            assert not np.shares_memory(getattr(actual, column), getattr(block, column))


def test_blocks_of_every_shape_concatenate():
    """Mixed kinds, an unknown kind (code -1), and single-record and
    record-less (fully folded) histories, one block per entity."""
    shapes = {
        "e0": [[DAY, 3 * DAY], []],
        "e2": [[HOUR] * 5],
        "e4": [[2 * DAY], []],
    }
    hs = []
    for entity_id, gap_lists in shapes.items():
        for index, gaps in enumerate(gap_lists):
            order = list(range(len(gaps) + 1))
            hs.append(
                make_history(f"{entity_id}-h{index}", entity_id, gaps, 0.0, order,
                             [1800.0] * len(order), 0)
            )
    hs.append(make_history("e4-h9", "e4", [], 0.0, [], [], 3))
    hs = canonical(hs)
    blocks = [build_frame(hs[start:stop], KINDS) for _eid, start, stop in entity_slices(hs)]
    assert len({tuple(block.kind_labels) for block in blocks}) == 3
    expected = build_frame(hs, KINDS)
    assert -1 in expected.codes.tolist() and 0 in expected.n_raw.tolist()
    assert_same_frame(concat_frames(blocks), expected)


def test_no_blocks_stack_to_the_empty_frame():
    empty = build_frame([], KINDS)
    assert_same_frame(concat_frames([]), empty)
    assert_same_frame(concat_frames([empty, empty]), empty)
