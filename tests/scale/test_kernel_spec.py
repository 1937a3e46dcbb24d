"""The columnar kernel against its scalar spec, history by history.

Maintenance judges, profiles and summarizes from columnar frames
(:mod:`repro.scale.kernel`).  The scalar functions stay the spec:
:meth:`FraudDetector.judge`, :func:`collect_profile_pools`,
:func:`summarize_entity` and :func:`entity_panels`.  Over mixed-kind
histories — unknown kinds, single-record and record-less (fully folded)
histories, bursts, and gap patterns whose coefficient of variation or
mean sits on a REGULARITY threshold, where the kernel's vectorized
prefilter and its exact check could disagree — the kernel must
reproduce the spec exactly:

* ``judge_frame(build_frame(hs))`` flags the histories the detector
  flags, with the same verdicts;
* ``slice_pools`` over a frame slice pools the values
  ``collect_profile_pools`` pools over the same histories, and a
  ``KindPool`` that swaps fragments in and out holds what pooling the
  current fragments at once would;
* ``summarize_block`` over an entity's block equals ``summarize_entity``
  over its kept histories, and ``block_panels`` equals ``entity_panels``;
* ``concat_frames`` over per-entity frame blocks equals ``build_frame``
  over the same histories, column by column;
* over random append sequences on a store — compaction, histories
  created mid-order, slot rewrites, verdict flips — a block spliced
  cycle after cycle equals ``build_frame`` over the live histories, and
  the folded summary and panels equal the spec's;
* ``rating_histogram`` counts like ``np.histogram`` over
  ``RATING_EDGES``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    RATING_EDGES,
    OpinionUpload,
    rating_histogram,
    summarize_entity,
)
from repro.core.visualization import entity_panels, mean_positive_travel
from repro.fraud.detector import DetectorConfig, FraudDetector
from repro.fraud.profiles import ProfilePools, collect_profile_pools, profiles_from_pools
from repro.privacy.history_store import (
    FoldedStats,
    HistoryStore,
    InteractionHistory,
    InteractionUpload,
    StoredRecord,
)
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
    signature_keys,
    slice_pools,
    splice_frames,
    summarize_block,
)
from repro.util.clock import DAY, HOUR
from repro.util.rng import make_rng

#: Two known kinds; ``e4`` and ``e5`` have no kind (profiling skips them).
KINDS = {"e0": "cafe", "e1": "cafe", "e2": "dentist", "e3": "dentist"}
ENTITIES = ("e0", "e1", "e2", "e3", "e4", "e5")
#: Distances travelled: none, and values whose means round differently.
TRAVELS = (0.0, 0.5, 1.0, 7.3, 12.1)
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
    history_id: str,
    entity_id: str,
    gaps: list[float],
    t0: float,
    order,
    durations,
    folded: int,
    travels=None,
) -> InteractionHistory:
    times = np.cumsum([t0, *gaps]).tolist()
    travels = travels or [1.0] * len(times)
    records = [
        StoredRecord(
            upload=InteractionUpload(
                history_id=history_id,
                entity_id=entity_id,
                interaction_type="visit",
                event_time=times[index],
                duration=durations[index],
                travel_km=travels[index],
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
        travels = draw(
            st.lists(st.sampled_from(TRAVELS), min_size=n_records, max_size=n_records)
        )
        t0 = draw(st.sampled_from([0.0, 1e6, 3.3e7]))
        folded = draw(st.integers(0, 4))
        if n_records == 0:
            folded = draw(st.integers(0, 6))
        result.append(
            make_history(
                f"h{index:02d}", entity_id, gaps, t0, order, durations, folded, travels
            )
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


def slot_columns(entity_id: str, opinions) -> tuple[np.ndarray, np.ndarray]:
    """A block's ``claims`` and ``ratings``: which slots claim the
    entity, and with what rating."""
    claims = [opinion is not None and opinion.entity_id == entity_id for opinion in opinions]
    ratings = [opinion.rating if claim else 0.0 for opinion, claim in zip(opinions, claims)]
    return np.array(claims, dtype=bool), np.array(ratings, dtype=np.float64)


def assert_summarized_like_the_spec(
    frame, entity_id, keep, opinions, fold, explicit
) -> None:
    kept = [history for history, kept in zip(frame.histories, keep.tolist()) if kept]
    inferred = [
        opinion
        for opinion, kept in zip(opinions, keep.tolist())
        if kept and opinion is not None and opinion.entity_id == entity_id
    ]
    expected = summarize_entity(entity_id, kept, inferred, explicit)
    claims, ratings = slot_columns(entity_id, opinions)
    actual = summarize_block(frame, entity_id, keep, claims, ratings, fold, explicit)
    assert repr(actual) == repr(expected)
    assert block_panels(frame, entity_id, keep) == entity_panels(entity_id, kept)


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
    entity or another one; only kept, self-claiming opinions count.  The
    fold is built from empty, as a fresh engine's is."""
    hs = canonical(hs)
    keep = ~judge_frame(build_frame(hs, KINDS), profiles_for(hs), CONFIGS[0]).suspicious
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
        block = build_frame(hs[start:stop], KINDS)
        block_keep = keep[start:stop]
        fold = refold(
            SignatureFold(), block, np.zeros(stop - start, dtype=bool), block_keep, NO_SIGNATURES
        )
        assert_summarized_like_the_spec(
            block, entity_id, block_keep, opinions[start:stop], fold, ratings
        )


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


# ------------------------------------------------ spliced blocks and folds

#: Histories the append programs write to; ids are drawn in any order,
#: so a new history lands anywhere among the existing ones.
PROGRAM_IDS = tuple(f"p{index:02d}" for index in range(10))
#: Each program history's entity: two of one kind, one of no kind.
PROGRAM_ENTITY = {hid: ("e0", "e1", "e4")[index % 3] for index, hid in enumerate(PROGRAM_IDS)}
#: Few distinct times and durations, so group signatures collide, both
#: within one history and across histories.
PROGRAM_TIMES = (0.0, 60.0, 60.4, 3600.0, 86400.0, 2 * 86400.0 + 0.5)
PROGRAM_DURATIONS = (30.0, 1800.0, 1800.0004, 1800.2)


@st.composite
def append_programs(draw):
    """Rounds of appends, slot writes and verdicts, on a store with or
    without compaction."""
    cap = draw(st.sampled_from([None, 2, 3]))
    rounds = []
    for _round in range(draw(st.integers(1, 5))):
        appends = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(PROGRAM_IDS),
                    st.sampled_from(PROGRAM_TIMES),
                    st.sampled_from(PROGRAM_DURATIONS),
                    st.sampled_from(TRAVELS),
                ),
                max_size=8,
            )
        )
        writes = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(PROGRAM_IDS),
                    st.sampled_from([None, "own", "other"]),
                    st.integers(0, 10),
                ),
                max_size=4,
            )
        )
        rejected = draw(st.sets(st.sampled_from(PROGRAM_IDS)))
        rounds.append((appends, writes, rejected))
    return cap, rounds


@settings(max_examples=120, deadline=None)
@given(program=append_programs(), explicit=st.lists(st.integers(1, 5), max_size=2))
def test_spliced_blocks_and_folds_equal_the_spec(program, explicit):
    """Each round appends to the store, rewrites slots and re-judges
    (``rejected`` stands in for the verdicts); then every entity's block
    is spliced from its previous one, all entities in one
    ``splice_frames`` call, and its fold is carried across and refolded,
    as maintenance does.  Blocks equal ``build_frame`` over the live
    histories column by column; summaries and panels equal the spec's."""
    cap, rounds = program
    store = HistoryStore(max_records_per_history=cap)
    slot: dict[str, OpinionUpload | None] = {}
    entities = ("e0", "e1", "e4")
    empty = build_frame([], KINDS)
    frames = {entity_id: empty for entity_id in entities}
    folded = {entity_id: np.zeros(0, dtype=bool) for entity_id in entities}
    folds = {entity_id: SignatureFold() for entity_id in entities}
    ratings = [float(rating) for rating in explicit]
    for appends, writes, rejected in rounds:
        for history_id, t, duration, travel in appends:
            upload = InteractionUpload(
                history_id, PROGRAM_ENTITY[history_id], "visit", t, duration, travel
            )
            assert store.append(upload, arrival_time=t)
        for history_id, claim, rating in writes:
            if claim is None:
                slot[history_id] = None
            else:
                claimed = PROGRAM_ENTITY[history_id] if claim == "own" else "e1"
                slot[history_id] = OpinionUpload(history_id, claimed, rating / 2)
        live = {
            entity_id: sorted(
                store.histories_for_entity(entity_id), key=lambda h: h.history_id
            )
            for entity_id in entities
        }
        spliced = splice_frames(
            [frames[entity_id] for entity_id in entities],
            [live[entity_id] for entity_id in entities],
            KINDS,
        )
        for entity_id, (frame, source) in zip(entities, spliced):
            assert_same_frame(frame, build_frame(live[entity_id], KINDS))
            carried, unfolded = carry_fold(frames[entity_id], folded[entity_id], source)
            keep = np.array(
                [history.history_id not in rejected for history in live[entity_id]],
                dtype=bool,
            )
            folds[entity_id] = refold(folds[entity_id], frame, carried, keep, unfolded)
            frames[entity_id], folded[entity_id] = frame, keep
            opinions = [slot.get(history.history_id) for history in live[entity_id]]
            assert_summarized_like_the_spec(
                frame, entity_id, keep, opinions, folds[entity_id], ratings
            )


def test_splice_lays_out_only_changed_and_new_histories(monkeypatch):
    """Of twenty histories, one gains a record and one is created
    between existing ones: ``build_frame`` lays out exactly those two,
    and the other eighteen segments are reused."""
    store = HistoryStore(max_records_per_history=3)
    for index in range(0, 40, 2):
        for visit in range(2):
            store.append(
                InteractionUpload(f"q{index:02d}", "e0", "visit", visit * DAY, 1800.0, 1.0),
                arrival_time=0.0,
            )
    old = build_frame(sorted(store.histories_for_entity("e0"), key=lambda h: h.history_id), KINDS)
    store.append(InteractionUpload("q10", "e0", "visit", 5 * DAY, 60.0, 2.0), 0.0)
    store.append(InteractionUpload("q11", "e0", "visit", 6 * DAY, 60.0, 2.0), 0.0)
    laid_out: list[str] = []
    real_build = build_frame

    def counting_build(histories, entity_kinds):
        laid_out.extend(history.history_id for history in histories)
        return real_build(histories, entity_kinds)

    monkeypatch.setattr("repro.scale.kernel.build_frame", counting_build)
    live = sorted(store.histories_for_entity("e0"), key=lambda h: h.history_id)
    [(frame, source)] = splice_frames([old], [live], KINDS)
    assert laid_out == ["q10", "q11"]
    assert int((source >= 0).sum()) == 19
    assert_same_frame(frame, real_build(live, KINDS))


def test_a_drop_the_fold_does_not_hold_is_refused():
    frame = build_frame(
        [make_history("h0", "e0", [DAY], 0.0, [0, 1], [60.0, 60.0], 0)], KINDS
    )
    keys = signature_keys(frame, np.array([True]))
    fold = refold(SignatureFold(), frame, np.array([False]), np.array([True]), NO_SIGNATURES)
    assert fold.n_distinct == 2
    with pytest.raises(ValueError):
        refold(fold, frame, np.array([True]), np.array([True]), np.concatenate((keys, keys)))


# ---------------------------------------------------------- kind pools


@settings(max_examples=50, deadline=None)
@given(
    rounds=st.lists(
        st.tuples(histories(), st.sets(st.sampled_from(ENTITIES))), min_size=1, max_size=4
    )
)
def test_kind_pools_swap_fragments_like_pooling_at_once(rounds):
    """Each round replaces the fragments of some entities (a dirty set)
    with fresh ones, in sorted order, as maintenance does; an entity
    whose histories are gone gets an empty fragment.  After every round
    each kind's pool holds the multiset of values, the history count and
    the profile that pooling every entity's current histories at once
    gives — whatever order the fragments were swapped in."""
    current: dict[str, list[InteractionHistory]] = {}
    pools: dict[str, KindPool] = {}
    for round_index, (hs, dirty) in enumerate(rounds):
        by_entity: dict[str, list[InteractionHistory]] = {}
        for history in hs:
            renamed = dataclasses.replace(history, history_id=f"r{round_index}{history.history_id}")
            by_entity.setdefault(history.entity_id, []).append(renamed)
        fragments: dict[str, dict[str, ProfilePools]] = {}
        for entity_id in sorted(dirty):
            kind = KINDS.get(entity_id)
            current[entity_id] = by_entity.get(entity_id, [])
            if kind is None:
                continue
            frame = build_frame(current[entity_id], KINDS)
            fragments.setdefault(kind, {})[entity_id] = slice_pools(frame, 0, frame.n_histories)
        for kind, kind_fragments in sorted(fragments.items()):
            pools.setdefault(kind, KindPool(kind)).replace(kind_fragments)
        everything = [history for entity_id in sorted(current) for history in current[entity_id]]
        expected = collect_profile_pools(everything, KINDS)
        for kind, pool in pools.items():
            assert pool.n_histories == expected.n_histories.get(kind, 0)
            for name in ("gaps", "durations", "counts"):
                ours = sorted(pool.values[name].tolist())
                assert ours == sorted(getattr(expected, name).get(kind, []))
                assert pool.lengths[name].sum() == pool.values[name].size
            if pool.n_histories:
                assert profiles_from_pools(pool.pools()).get(kind) == profiles_from_pools(
                    expected
                ).get(kind)


def test_entity_blocks_pool_like_collect_profile_pools():
    """The one-kind block of each entity (the shape maintenance slices)
    pools what the scalar collector pools, including a history too short
    for gaps and one with no raw records."""
    for min_length in (1, 2, 3):
        hs = [
            make_history("a", "e0", [DAY, 2 * DAY], 0.0, [0, 1, 2], [60.0, 90.0, 30.0], 0),
            make_history("b", "e0", [], 0.0, [0], [45.0], 0),
            make_history("c", "e0", [], 0.0, [], [], 3),
            make_history("d", "e0", [HOUR], 5.0, [1, 0], [10.0, 20.0], 1),
        ]
        frame = build_frame(hs, KINDS)
        expected = collect_profile_pools(hs, KINDS, min_length)
        assert same_pools(slice_pools(frame, 0, frame.n_histories, min_length), expected)


# ---------------------------------------------------------- histograms


@settings(max_examples=200, deadline=None)
@given(
    ratings=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 4.0, 5.0, 5.0001, 5.00011, -1e-9, 6.0, float("nan")])
        | st.floats(-1.0, 6.0)
        | st.integers(-1, 6),
        max_size=12,
    )
)
def test_rating_histogram_counts_like_np_histogram(ratings):
    counts, _ = np.histogram(np.asarray(ratings, dtype=np.float64), bins=RATING_EDGES)
    assert rating_histogram(ratings) == counts.tolist()


@settings(max_examples=60, deadline=None)
@given(
    travel_lists=st.lists(
        st.lists(st.sampled_from(TRAVELS) | st.floats(0.0, 500.0), max_size=300),
        min_size=1,
        max_size=12,
    )
)
def test_travel_means_equal_mean_positive_travel(travel_lists):
    """Histories of every length, many with the same number of positive
    travels (they share one row-wise mean), some with none."""
    hs = [
        make_history(
            f"t{index:02d}", "e0", [HOUR] * max(len(travels) - 1, 0), 0.0,
            list(range(len(travels))), [60.0] * len(travels), 0 if travels else 2,
            list(travels),
        )
        for index, travels in enumerate(travel_lists)
    ]
    frame = build_frame(hs, KINDS)
    expected = [mean_positive_travel(history.travel_kms()) for history in hs]
    assert frame.travel_means.tolist() == expected
