"""Inputs are a function of the seed; the intake reference model is exact."""

from __future__ import annotations

import pytest

from bench.workloads import WORKLOADS, SetupWatch, reference_fates


def digest(workload, seed: int) -> str:
    watch = SetupWatch()
    inputs = workload.setup(seed, workload.sizes[True], watch)
    assert set(watch.seconds) <= {"world", "classifier", "loadgen"}
    return workload.input_digest(inputs)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOADS[name]
    first = digest(workload, 3)
    assert digest(workload, 3) == first
    assert digest(workload, 4) != first


def test_reference_fates_classify_every_impurity():
    from repro.core.aggregation import OpinionUpload
    from repro.core.protocol import Envelope
    from repro.privacy.anonymity import Delivery

    def delivery(entity_id, history_id, seq, nonce):
        record = OpinionUpload(history_id=history_id, entity_id=entity_id, rating=3.0, seq=seq)
        envelope = Envelope(record=record, token=None, nonce=nonce)
        return Delivery(payload=envelope, arrival_time=0.0, channel_tag="test")

    batch = [
        delivery("e1", "h1", 0, b"n1"),  # accepted
        delivery("e1", "h1", 0, b"n1"),  # same nonce again: duplicate
        delivery("zz", "h2", 0, b"n2"),  # unknown entity: rejected
        delivery("zz", "h2", 0, b"n2"),  # refused nonce never burns: rejected again
        delivery("e1", "h1", 0, b"n3"),  # seq does not beat the slot: stale
        delivery("e1", "h1", 1, b"n4"),  # newer seq: accepted
    ]
    assert reference_fates([batch], {"e1"}) == {
        "accepted": 3,
        "rejected": 2,
        "duplicates": 1,
        "stale": 1,
    }
