"""Snapshots: canonical codec, partition independence, atomic persistence."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.codec import (
    CorruptStateError,
    canonical_json_bytes,
    digest_hex,
    seal,
    seal_parts,
    unseal,
)
from repro.durability.snapshot import (
    SNAPSHOT_FORMAT,
    capture_state,
    list_snapshots,
    load_latest_snapshot,
    render_state,
    restore_state,
    snapshot_name,
    write_snapshot,
)

from repro.telemetry import AGGREGATE, DEPLOYMENT

from tests.durability.conftest import comparable_state, make_server, synth_deliveries


class TestCodec:
    def test_canonical_bytes_sort_keys_and_compact(self):
        assert canonical_json_bytes({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'

    def test_seal_round_trips(self):
        state = {"x": [1, 2.5], "y": {"nested": "ü"}}
        blob = seal(state, "rsp-snapshot/1")
        assert blob["format"] == "rsp-snapshot/1"
        assert blob["digest"] == digest_hex(canonical_json_bytes(state))
        assert unseal(blob, "rsp-snapshot/1") == state

    def test_seal_survives_json_round_trip(self):
        blob = seal({"k": "v"}, "rsp-snapshot/1")
        assert unseal(json.loads(json.dumps(blob)), "rsp-snapshot/1") == {"k": "v"}

    def test_tampered_state_is_rejected(self):
        blob = seal({"count": 7}, "rsp-snapshot/1")
        blob["state"]["count"] = 8
        with pytest.raises(CorruptStateError, match="digest"):
            unseal(blob, "rsp-snapshot/1")

    def test_wrong_kind_is_rejected(self):
        blob = seal({"count": 7}, "rsp-snapshot/1")
        with pytest.raises(CorruptStateError):
            unseal(blob, "rsp-checkpoint/1")

    def test_nan_refused(self):
        with pytest.raises(ValueError):
            canonical_json_bytes({"x": float("inf")})

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.text(max_size=6),
            st.recursive(
                st.none()
                | st.booleans()
                | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                max_leaves=10,
            ),
            max_size=5,
        ),
        st.sampled_from(["rsp-snapshot/1", "kind \"quoted\" ü"]),
    )
    def test_seal_parts_are_the_canonical_sealed_blob(self, state, kind):
        body = canonical_json_bytes(state)
        assert b"".join(seal_parts(body, kind)) == canonical_json_bytes(seal(state, kind))


class TestPartitionIndependence:
    def fed(self, catalog, n_shards):
        server = make_server(catalog, n_shards)
        server.post_review("user-x", sorted(server.catalog)[0], 4, 100.0)
        server.receive_all(synth_deliveries(catalog, 0, 60, duplicate_every=9))
        return server

    def test_monolith_and_sharded_capture_identical_bytes(self, catalog):
        states = [
            canonical_json_bytes(capture_state(self.fed(catalog, shards)))
            for shards in (1, 3, 8)
        ]
        assert states[0] == states[1] == states[2]

    @pytest.mark.parametrize("src_shards,dst_shards", [(1, 4), (4, 1), (4, 2)])
    def test_restore_crosses_deployments(self, catalog, src_shards, dst_shards):
        source = self.fed(catalog, src_shards)
        state = capture_state(source)
        target = make_server(catalog, dst_shards)
        restore_state(target, state)
        assert capture_state(target) == state
        assert comparable_state(target) == comparable_state(source)

    def test_restore_skips_a_retired_counter(self, catalog):
        """Snapshots written before the maintenance worker pool was removed
        still carry its ``pool_fallbacks`` counter; they must load."""
        current = capture_state(self.fed(catalog, 2))
        assert "pool_fallbacks" not in current["counters"]
        legacy = json.loads(json.dumps(current))
        legacy["counters"]["pool_fallbacks"] = 0
        target = make_server(catalog, 2)
        restore_state(target, legacy)
        assert not hasattr(target, "pool_fallbacks")
        assert capture_state(target) == current

    def test_restore_refuses_a_used_store(self, catalog):
        source = self.fed(catalog, 1)
        target = self.fed(catalog, 1)
        with pytest.raises(ValueError, match="fresh"):
            restore_state(target, capture_state(source))


class TestPersistence:
    STATE = {"histories": [], "counters": {"accepted_envelopes": 3}}

    def test_write_then_load_latest(self, tmp_path):
        write_snapshot(tmp_path, 17, canonical_json_bytes(self.STATE))
        assert (tmp_path / snapshot_name(17)).exists()
        seq, state = load_latest_snapshot(tmp_path)
        assert seq == 17 and state == self.STATE

    def test_file_is_the_canonical_sealed_blob(self, catalog, tmp_path):
        server = make_server(catalog, 2)
        server.post_review("user-ü", sorted(server.catalog)[0], 4, 100.0)
        server.receive_all(synth_deliveries(catalog, 0, 40, duplicate_every=9))
        assert render_state(server, 40) == canonical_json_bytes(capture_state(server, 40))
        for seq, state in ((3, self.STATE), (40, capture_state(server, 40))):
            path = write_snapshot(tmp_path, seq, canonical_json_bytes(state))
            assert path.read_bytes() == canonical_json_bytes(seal(state, SNAPSHOT_FORMAT))
            assert load_latest_snapshot(tmp_path) == (seq, state)

    def test_spaced_layout_still_loads(self, tmp_path):
        """Snapshots written before the compact encoding keep loading."""
        state = {"v": "old ü", "n": [1, 2.5, None]}
        path = tmp_path / snapshot_name(11)
        path.write_bytes(json.dumps(seal(state, SNAPSHOT_FORMAT), sort_keys=True).encode())
        assert load_latest_snapshot(tmp_path) == (11, state)

    def test_tampered_compact_newest_falls_back_to_older(self, tmp_path):
        write_snapshot(tmp_path, 5, canonical_json_bytes({"v": "old"}))
        path = write_snapshot(tmp_path, 9, canonical_json_bytes({"v": "new"}))
        data = path.read_bytes()
        assert data.count(b'"new"') == 1
        path.write_bytes(data.replace(b'"new"', b'"wen"'))
        assert load_latest_snapshot(tmp_path) == (5, {"v": "old"})

    def test_no_tmp_files_survive(self, tmp_path):
        write_snapshot(tmp_path, 17, canonical_json_bytes(self.STATE))
        assert not list(tmp_path.glob("*.tmp"))

    def test_newest_valid_snapshot_wins(self, tmp_path):
        write_snapshot(tmp_path, 5, canonical_json_bytes({"v": "old"}))
        write_snapshot(tmp_path, 9, canonical_json_bytes({"v": "new"}))
        assert load_latest_snapshot(tmp_path) == (9, {"v": "new"})
        assert [seq for seq, _ in list_snapshots(tmp_path)] == [5, 9]

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        write_snapshot(tmp_path, 5, canonical_json_bytes({"v": "old"}))
        path = write_snapshot(tmp_path, 9, canonical_json_bytes({"v": "new"}))
        blob = json.loads(path.read_text())
        blob["state"]["v"] = "mangled"
        path.write_text(json.dumps(blob))
        assert load_latest_snapshot(tmp_path) == (5, {"v": "old"})

    def test_undecodable_newest_falls_back_to_older(self, tmp_path):
        write_snapshot(tmp_path, 5, canonical_json_bytes({"v": "old"}))
        path = write_snapshot(tmp_path, 9, canonical_json_bytes({"v": "new"}))
        path.write_bytes(b"\x00garbage")
        assert load_latest_snapshot(tmp_path) == (5, {"v": "old"})

    def test_all_corrupt_means_cold_replay(self, tmp_path):
        path = write_snapshot(tmp_path, 5, canonical_json_bytes({"v": "only"}))
        path.write_bytes(b"{}")
        assert load_latest_snapshot(tmp_path) is None

    def test_empty_directory_means_cold_replay(self, tmp_path):
        assert load_latest_snapshot(tmp_path) is None


class TestSnapshotTelemetry:
    """The snapshot's wall-clock duration stays out of the invariant digest."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.orchestration.pipeline import train_classifier
        from repro.world.behavior import BehaviorConfig, BehaviorSimulator
        from repro.world.population import TownConfig, build_town

        town = build_town(TownConfig(n_users=30), seed=29)
        result = BehaviorSimulator(
            town.users, town.entities, BehaviorConfig(duration_days=28.0), seed=29
        ).run()
        return town, result, train_classifier(town, result, 28.0 * 86400.0, seed=29)

    def run(self, world, durable_dir):
        from repro.orchestration.epochs import run_epochs
        from repro.orchestration.pipeline import PipelineConfig

        town, result, classifier = world
        return run_epochs(
            town,
            result,
            PipelineConfig(horizon_days=28.0, seed=29),
            n_epochs=2,
            classifier=classifier,
            max_users=4,
            durable_dir=durable_dir,
        ).telemetry

    def test_identical_journaled_runs_have_equal_aggregate_digests(self, world, tmp_path):
        first = self.run(world, tmp_path / "first")
        second = self.run(world, tmp_path / "second")
        assert first.total("snapshot.count") == second.total("snapshot.count") == 2
        assert first.digest(AGGREGATE) == second.digest(AGGREGATE)
        for telemetry in (first, second):
            names = {row["name"] for row in telemetry.export(scope=DEPLOYMENT)["metrics"]}
            assert "snapshot.duration" in names
