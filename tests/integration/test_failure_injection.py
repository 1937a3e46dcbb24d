"""Failure injection: the pipeline under message loss and garbage input.

The anonymous upload channel is fire-and-forget by design (an ack would
link the upload to the device), so losses are permanent.  These tests pin
down graceful degradation: no crashes, no corrupted state, coverage that
shrinks roughly in proportion to the loss.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import Envelope
from repro.privacy.anonymity import AnonymityNetwork, Delivery
from repro.orchestration.pipeline import PipelineConfig, run_full_pipeline
from repro.service.server import RSPServer
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=40), seed=61)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=90), seed=61
    ).run()
    return town, result


class TestLossyNetwork:
    def test_drop_rate_validation(self):
        with pytest.raises(ValueError):
            AnonymityNetwork(drop_rate=1.5)

    def test_losses_counted_and_rest_delivered(self):
        network = AnonymityNetwork(batch_interval=3600.0, seed=3, drop_rate=0.5)
        for index in range(400):
            network.submit(index, submit_time=float(index), channel_tag="t")
        deliveries = network.deliveries_until(10_000.0)
        assert len(deliveries) + network.n_dropped == 400
        assert 100 < len(deliveries) < 300  # ~50% +/- noise

    def test_zero_drop_rate_loses_nothing(self):
        network = AnonymityNetwork(batch_interval=3600.0, seed=3, drop_rate=0.0)
        for index in range(50):
            network.submit(index, submit_time=float(index), channel_tag="t")
        assert len(network.deliveries_until(10_000.0)) == 50
        assert network.n_dropped == 0

    def test_pipeline_degrades_gracefully_under_loss(self, world):
        """30% message loss: the pipeline completes, stores are consistent,
        and coverage shrinks roughly proportionally."""
        town, result = world
        config = PipelineConfig(horizon_days=90.0, seed=61)

        clean = run_full_pipeline(town, result, config)

        # run_full_pipeline runs one epoch of run_epochs, which builds the mix.
        import repro.orchestration.epochs as epochs_module
        original = epochs_module.batching_network
        try:
            epochs_module.batching_network = (
                lambda batch_interval, seed: AnonymityNetwork(
                    batch_interval=batch_interval, seed=seed, drop_rate=0.3
                )
            )
            lossy = run_full_pipeline(town, result, config)
        finally:
            epochs_module.batching_network = original

        clean_records = clean.server.n_records
        lossy_records = lossy.server.n_records
        assert 0.5 * clean_records < lossy_records < 0.9 * clean_records
        # State stays consistent: every stored record was token-checked.
        stored = lossy.server.n_records + lossy.server.n_opinions
        assert stored == lossy.server._redeemer.n_redeemed
        # And the service still aggregates and searches.
        lossy.server.run_maintenance()


class TestGarbageIntake:
    @given(
        st.one_of(
            st.none(),
            st.integers(),
            st.text(max_size=30),
            st.binary(max_size=30),
            st.dictionaries(st.text(max_size=5), st.integers(), max_size=3),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_server_never_crashes_on_garbage_records(self, garbage):
        """Whatever arrives in an envelope, receive() returns False rather
        than raising — the intake is a hard trust boundary."""
        town = build_town(TownConfig(n_users=2), seed=62)
        server = RSPServer(
            catalog=town.entities, key_seed=62, key_bits=256, require_tokens=False
        )
        delivery = Delivery(
            payload=Envelope(record=garbage, token=None),
            arrival_time=0.0,
            channel_tag="t",
        )
        assert server.receive(delivery) is False
        assert server.rejected_envelopes >= 1

    def test_garbage_does_not_poison_maintenance(self):
        town = build_town(TownConfig(n_users=2), seed=63)
        server = RSPServer(
            catalog=town.entities, key_seed=63, key_bits=256, require_tokens=False
        )
        for garbage in (None, 42, "x", b"y", object()):
            server.receive(
                Delivery(
                    payload=Envelope(record=garbage, token=None),
                    arrival_time=0.0,
                    channel_tag="t",
                )
            )
        report = server.run_maintenance()
        assert report.n_histories == 0
