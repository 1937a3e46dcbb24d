"""Tests for typical profiles and the fraud detector."""

import numpy as np
import pytest

from repro.fraud.detector import DetectorConfig, FraudDetector, FraudFlag
from repro.fraud.profiles import FeatureBand, build_profiles
from repro.privacy.history_store import HistoryStore, InteractionUpload
from repro.privacy.identifiers import DeviceIdentity
from repro.util.clock import DAY, HOUR


def honest_store(
    n_users=40, entity="dentist-1", seed=0, mean_gap_days=120.0, duration_s=3600.0
) -> HistoryStore:
    """A store of plausible dentist histories: 2-4 visits, months apart."""
    store = HistoryStore()
    rng = np.random.default_rng(seed)
    for index in range(n_users):
        identity = DeviceIdentity.create(f"user-{index}", seed=index)
        t = float(rng.uniform(0, 60)) * DAY
        for _ in range(int(rng.integers(2, 5))):
            store.append(
                InteractionUpload(
                    history_id=identity.history_id(entity),
                    entity_id=entity,
                    interaction_type="visit",
                    event_time=t,
                    duration=float(rng.uniform(0.6, 1.6)) * duration_s,
                    travel_km=float(rng.uniform(0.5, 8.0)),
                ),
                arrival_time=t,
            )
            t += float(rng.uniform(0.4, 1.8)) * mean_gap_days * DAY
    return store


KINDS = {"dentist-1": "dentist"}


class TestFeatureBand:
    def test_percentiles_ordered(self):
        band = FeatureBand.from_values(np.random.default_rng(0).uniform(0, 100, 1000))
        assert band.p01 <= band.p05 <= band.median <= band.p95 <= band.p99

    def test_floor_and_ceiling(self):
        band = FeatureBand.from_values(range(1, 101))
        assert band.below_floor(0.5)
        assert not band.below_floor(50)
        assert band.above_ceiling(1000)
        assert not band.above_ceiling(50)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureBand.from_values([])


class TestBuildProfiles:
    def test_profile_built_per_kind(self):
        store = honest_store()
        profiles = build_profiles(store, KINDS)
        assert "dentist" in profiles
        profile = profiles["dentist"]
        assert profile.n_histories == 40
        # Gaps should be on the order of months.
        assert 30 * DAY < profile.gaps.median < 300 * DAY

    def test_unknown_entities_ignored(self):
        store = honest_store()
        profiles = build_profiles(store, {})
        assert profiles == {}


class TestDetectorOnHonestTraffic:
    def test_low_false_positive_rate(self):
        store = honest_store(n_users=80, seed=1)
        detector = FraudDetector(build_profiles(store, KINDS), KINDS)
        _, rejected = detector.filter_store(store)
        assert len(rejected) <= 0.05 * store.n_histories

    def test_short_histories_not_judged(self):
        store = honest_store(seed=2)
        detector = FraudDetector(build_profiles(store, KINDS), KINDS)
        identity = DeviceIdentity.create("newcomer", seed=99)
        single = HistoryStore()
        single.append(
            InteractionUpload(
                identity.history_id("dentist-1"), "dentist-1", "visit", 0.0, 3600.0, 2.0
            ),
            arrival_time=0.0,
        )
        verdict = detector.judge(single.all_histories()[0])
        assert not verdict.judged
        assert not verdict.suspicious

    def test_unknown_kind_not_judged(self):
        store = honest_store(seed=3)
        detector = FraudDetector(build_profiles(store, KINDS), KINDS)
        other = HistoryStore()
        identity = DeviceIdentity.create("u", seed=0)
        for t in (0.0, 10.0, 20.0, 30.0):
            other.append(
                InteractionUpload(identity.history_id("mystery"), "mystery", "call", t, 5.0, 0.0),
                arrival_time=t,
            )
        verdict = detector.judge(other.all_histories()[0])
        assert not verdict.judged


def attack_history(uploads):
    store = HistoryStore()
    for upload in uploads:
        store.append(upload, arrival_time=upload.event_time)
    assert store.n_histories == 1
    return store.all_histories()[0]


class TestDetectorOnAttacks:
    @pytest.fixture(scope="class")
    def detector(self):
        store = honest_store(n_users=60, seed=4)
        return FraudDetector(build_profiles(store, KINDS), KINDS)

    def test_burst_calls_flagged(self, detector):
        identity = DeviceIdentity.create("spammer", seed=5)
        uploads = [
            InteractionUpload(
                identity.history_id("dentist-1"), "dentist-1", "call",
                event_time=1000.0 + i * 120.0, duration=6.0, travel_km=0.0,
            )
            for i in range(15)
        ]
        verdict = detector.judge(attack_history(uploads))
        assert verdict.suspicious
        assert FraudFlag.BURST in verdict.flags
        assert FraudFlag.SHORT_DURATION in verdict.flags

    def test_daily_presence_flagged(self, detector):
        identity = DeviceIdentity.create("employee", seed=6)
        uploads = [
            InteractionUpload(
                identity.history_id("dentist-1"), "dentist-1", "visit",
                event_time=i * DAY, duration=8 * HOUR, travel_km=0.1,
            )
            for i in range(30)
        ]
        verdict = detector.judge(attack_history(uploads))
        assert verdict.suspicious
        assert FraudFlag.REGULARITY in verdict.flags
        assert FraudFlag.VOLUME in verdict.flags

    def test_zero_gap_records_flagged_as_burst(self, detector):
        identity = DeviceIdentity.create("replayer", seed=7)
        uploads = [
            InteractionUpload(
                identity.history_id("dentist-1"), "dentist-1", "visit",
                event_time=5 * DAY, duration=3600.0, travel_km=1.0,
            )
            for _ in range(5)
        ]
        verdict = detector.judge(attack_history(uploads))
        assert FraudFlag.BURST in verdict.flags

    def test_verdict_explains_flags(self, detector):
        identity = DeviceIdentity.create("spammer2", seed=8)
        uploads = [
            InteractionUpload(
                identity.history_id("dentist-1"), "dentist-1", "call",
                event_time=i * 60.0, duration=5.0, travel_km=0.0,
            )
            for i in range(10)
        ]
        verdict = detector.judge(attack_history(uploads))
        assert verdict.n_interactions == 10
        assert verdict.entity_id == "dentist-1"
        assert all(isinstance(flag, FraudFlag) for flag in verdict.flags)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(min_interactions_to_judge=0)
