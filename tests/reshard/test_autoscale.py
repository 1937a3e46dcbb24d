"""The autoscaling policy: thresholds, hysteresis, one op per tick."""

import pytest

from repro.reshard import AutoscalePolicy, Autoscaler, ReshardOp
from repro.telemetry import Telemetry

from tests.durability.conftest import make_server, synth_deliveries


def loaded_server(catalog, n_shards=2, n=40):
    server = make_server(catalog, n_shards)
    server.receive_all(synth_deliveries(catalog, 0, n))
    return server


class TestPolicyValidation:
    def test_split_above_must_be_positive(self):
        with pytest.raises(ValueError, match="split_above"):
            AutoscalePolicy(split_above=0, merge_below=0)

    def test_hysteresis_band_is_enforced(self):
        with pytest.raises(ValueError, match="hysteresis"):
            AutoscalePolicy(split_above=10, merge_below=11)

    def test_shard_bounds(self):
        with pytest.raises(ValueError, match="min_shards"):
            AutoscalePolicy(split_above=10, merge_below=5, min_shards=0)
        with pytest.raises(ValueError, match="max_shards"):
            AutoscalePolicy(split_above=10, merge_below=5, min_shards=4, max_shards=2)


class TestDecide:
    def test_splits_the_hottest_shard(self, catalog):
        server = loaded_server(catalog)
        loads = Autoscaler(AutoscalePolicy(1, 0)).loads(server)
        hottest = max(range(len(loads)), key=lambda i: (loads[i], -i))
        policy = AutoscalePolicy(split_above=min(loads), merge_below=0)
        op = Autoscaler(policy).decide(server)
        assert op == ReshardOp.split(hottest)

    def test_merges_the_two_coldest_shards(self, catalog):
        server = loaded_server(catalog, n_shards=4)
        loads = Autoscaler(AutoscalePolicy(1, 0)).loads(server)
        coldest = sorted(sorted(range(4), key=lambda i: (loads[i], i))[:2])
        policy = AutoscalePolicy(
            split_above=10 * sum(loads), merge_below=10 * sum(loads)
        )
        op = Autoscaler(policy).decide(server)
        assert op == ReshardOp.merge(*coldest)

    def test_balanced_deployment_is_left_alone(self, catalog):
        server = loaded_server(catalog)
        loads = Autoscaler(AutoscalePolicy(1, 0)).loads(server)
        policy = AutoscalePolicy(split_above=max(loads), merge_below=1)
        assert Autoscaler(policy).decide(server) is None

    def test_max_shards_blocks_the_split(self, catalog):
        server = loaded_server(catalog)
        policy = AutoscalePolicy(split_above=1, merge_below=0, max_shards=2)
        assert Autoscaler(policy).decide(server) is None

    def test_min_shards_blocks_the_merge(self, catalog):
        server = loaded_server(catalog)
        total = sum(Autoscaler(AutoscalePolicy(1, 0)).loads(server))
        policy = AutoscalePolicy(
            split_above=10 * total, merge_below=10 * total, min_shards=2
        )
        assert Autoscaler(policy).decide(server) is None

    def test_prefers_the_telemetry_gauges_over_the_stores(self, catalog):
        server = loaded_server(catalog)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        # Gauges disagree with the stores: shard 1 *reports* hot.
        telemetry.set_gauge("rsp.shard.histories", 5, shard=0)
        telemetry.set_gauge("rsp.shard.histories", 500, shard=1)
        scaler = Autoscaler(AutoscalePolicy(split_above=100, merge_below=0))
        assert scaler.loads(server) == [5, 500]
        assert scaler.decide(server) == ReshardOp.split(1)


class TestEvaluate:
    def test_applies_at_most_one_op_and_records_it(self, catalog):
        server = loaded_server(catalog)
        scaler = Autoscaler(AutoscalePolicy(split_above=1, merge_below=0))
        before = server.router.n_shards
        applied = scaler.evaluate(server)
        assert applied is not None and applied.kind == "split"
        assert server.router.n_shards == before + 1
        assert server.reshard_history[-1]["op"] == "split"

    def test_noop_evaluation_records_nothing(self, catalog):
        server = loaded_server(catalog)
        loads = Autoscaler(AutoscalePolicy(1, 0)).loads(server)
        scaler = Autoscaler(
            AutoscalePolicy(split_above=max(loads), merge_below=1)
        )
        assert scaler.evaluate(server) is None
        assert server.reshard_history == []

    def test_observes_the_load_histogram(self, catalog):
        server = loaded_server(catalog)
        telemetry = Telemetry()
        server.attach_telemetry(telemetry)
        scaler = Autoscaler(AutoscalePolicy(split_above=10**6, merge_below=0))
        scaler.decide(server)
        export = telemetry.export_json()
        assert "rsp.reshard.load" in export
