"""Recovery idempotency: dedup state provably survives a restart.

The at-least-once channel makes every delivery a potential re-delivery;
the acceptance rules that suppress them (nonce table, per-slot opinion
``seq``, issuer quota windows) are exactly the state a restart must not
lose.  Each test crashes between the first delivery and its duplicate,
or checks what recovery reads to rebuild that state.
"""

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability import journal as journal_module
from repro.durability import recovery
from repro.durability.journal import (
    DurableJournal,
    attach_journal,
    list_segments,
    segment_name,
)
from repro.durability.recovery import recover_server
from repro.durability.snapshot import capture_state
from repro.durability.wal import read_wal, scan_wal
from repro.privacy.anonymity import Delivery
from repro.privacy.tokens import QuotaExceeded
from repro.util.clock import DAY

from tests.durability.conftest import (
    comparable_state,
    make_server,
    synth_deliveries,
)


def durable_server(catalog, directory, n_shards=1):
    server = make_server(catalog, n_shards)
    attach_journal(server, DurableJournal(directory, n_lanes=1))
    return server


def opinion_delivery(entity_id, nonce_int, seq, rating, history_id="hist-00001"):
    """One opinion envelope with an explicit nonce and slot ``seq``."""
    record = OpinionUpload(
        history_id=history_id, entity_id=entity_id, rating=rating, seq=seq
    )
    envelope = Envelope(record=record, token=None, nonce=nonce_int.to_bytes(16, "big"))
    return Delivery(
        payload=envelope,
        arrival_time=1000.0 + nonce_int,
        channel_tag=f"ch-{nonce_int}",
    )


@pytest.mark.parametrize("torn_bytes", [0, 9])
def test_pre_crash_duplicates_stay_suppressed_after_recovery(
    catalog, tmp_path, torn_bytes
):
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    deliveries = synth_deliveries(catalog, 0, 20)
    server.receive_all(deliveries)
    expected = comparable_state(server)
    server.journal.crash(torn_bytes=torn_bytes)

    recovered = make_server(catalog)
    recover_server(recovered, directory)
    recovered.receive_all(deliveries)  # the channel re-sends everything
    assert recovered.duplicates_suppressed == 20
    assert comparable_state(recovered) == expected


def test_stale_opinion_seq_survives_recovery(catalog, tmp_path):
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    server.receive_all(synth_deliveries(catalog, 0, 8))
    entity_id = sorted(e.entity_id for e in catalog)[1]
    server.receive_all([opinion_delivery(entity_id, 900, seq=2, rating=5.0)])
    server.journal.crash()

    recovered = make_server(catalog)
    recover_server(recovered, directory)
    _, rating, seq = capture_state(recovered)["opinions"]["hist-00001"]
    assert (seq, rating) == (2, 5.0)

    # A delayed older upload (fresh nonce, lower seq) arrives only now:
    # the restored slot seq must win, and the envelope still counts as
    # accepted — exactly the pre-crash semantics.
    stale_before = recovered.opinions_stale
    accepted_before = recovered.accepted_envelopes
    recovered.receive_all([opinion_delivery(entity_id, 901, seq=1, rating=1.0)])
    _, rating, seq = capture_state(recovered)["opinions"]["hist-00001"]
    assert (seq, rating) == (2, 5.0)
    assert recovered.opinions_stale == stale_before + 1
    assert recovered.accepted_envelopes == accepted_before + 1


def test_replayed_stale_acceptance_reproduces_the_counter(catalog, tmp_path):
    """A stale-but-accepted upload is journaled; replay re-runs the seq
    rule and lands on the same slot and the same ``opinions_stale``."""
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    server.receive_all(synth_deliveries(catalog, 0, 8))
    entity_id = sorted(e.entity_id for e in catalog)[1]
    server.receive_all(
        [
            opinion_delivery(entity_id, 910, seq=3, rating=4.0),
            opinion_delivery(entity_id, 911, seq=1, rating=2.0),  # stale
        ]
    )
    assert server.opinions_stale == 1
    server.journal.crash()

    recovered = make_server(catalog)
    recover_server(recovered, directory)
    assert recovered.opinions_stale == 1
    assert comparable_state(recovered) == comparable_state(server)


def test_issuer_quota_window_survives_recovery(catalog, tmp_path):
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    server.issuer.issue("device-7", [3, 5, 7], now=100.0)
    server.issuer.issue("device-7", [11], now=200.0)
    remaining = server.issuer.remaining_quota("device-7", now=300.0)
    assert remaining == server.issuer.quota_per_day - 4
    server.journal.crash()

    recovered = make_server(catalog)
    recover_server(recovered, directory)
    assert recovered.issuer.remaining_quota("device-7", now=300.0) == remaining
    # The window start is restored too: the same day keeps counting, the
    # next day resets.
    assert (
        recovered.issuer.remaining_quota("device-7", now=100.0 + 86400.0)
        == recovered.issuer.quota_per_day
    )


def test_a_refused_issuance_does_not_roll_the_quota_window(catalog, tmp_path):
    # Only successful issuances are journaled, so a refusal must leave the
    # window exactly as it found it — or replay lands on another window.
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    issuer = server.issuer
    issuer.issue("device-7", [3], now=0.0)
    with pytest.raises(QuotaExceeded):
        issuer.issue("device-7", list(range(2, issuer.quota_per_day + 3)), now=DAY + 1.0)
    issuer.issue("device-7", [5], now=2 * DAY)
    server.journal.crash()

    recovered = make_server(catalog)
    recover_server(recovered, directory)
    for restarted in (server, recovered):
        assert (
            restarted.issuer.remaining_quota("device-7", now=2 * DAY + 10.0)
            == issuer.quota_per_day - 1
        )


def test_recovery_never_opens_a_segment_the_snapshot_covers(
    catalog, tmp_path, monkeypatch
):
    directory = tmp_path / "durable"
    server = make_server(catalog, n_shards=2)
    attach_journal(
        server, DurableJournal(directory, n_lanes=2, lane_of=server.router.shard_of)
    )
    server.receive_all(synth_deliveries(catalog, 0, 12))
    server.journal.take_snapshot(server)
    server.receive_all(synth_deliveries(catalog, 12, 20))
    server.journal.take_snapshot(server)
    server.receive_all(synth_deliveries(catalog, 20, 26))
    server.journal.crash()
    # Truncation keeps the older snapshot's replay source: the segments
    # opened at seq 13, which the newest snapshot (seq 20) covers.
    segments = [path for lane in list_segments(directory).values() for _, path in lane]
    covered = {path for path in segments if path.name.endswith("000000000013.log")}
    assert len(covered) == 2

    everything = sorted(
        (record for path in segments for record in read_wal(path).records),
        key=lambda record: record["seq"],
    )
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(path)
        return scan_wal(path, *args, **kwargs)

    monkeypatch.setattr(recovery, "scan_wal", spy)
    mutations, _ = recovery.read_mutations(directory, after_seq=20)
    assert mutations == [record for record in everything if record["seq"] > 20]
    assert set(opened) == set(segments) - covered
    # Falling back to the older snapshot still reads every segment.
    opened.clear()
    mutations, _ = recovery.read_mutations(directory, after_seq=12)
    assert mutations == [record for record in everything if record["seq"] > 12]
    assert set(opened) == set(segments)

    recovered = make_server(catalog, n_shards=2)
    assert recover_server(recovered, directory).n_replayed == 6
    assert comparable_state(recovered) == comparable_state(server)


def test_reopening_a_journal_decodes_only_final_segments(
    catalog, tmp_path, monkeypatch
):
    directory = tmp_path / "durable"
    server = make_server(catalog, n_shards=2)
    attach_journal(
        server, DurableJournal(directory, n_lanes=2, lane_of=server.router.shard_of)
    )
    server.receive_all(synth_deliveries(catalog, 0, 12))
    server.journal.take_snapshot(server)
    server.receive_all(synth_deliveries(catalog, 12, 20))
    server.journal.take_snapshot(server)
    server.receive_all(synth_deliveries(catalog, 20, 26))
    server.journal.crash(torn_bytes=7)
    lanes = list_segments(directory).values()
    full_scan = 1 + max(
        record["seq"] for lane in lanes for _, path in lane for record in read_wal(path).records
    )
    opened = []

    def spy(path, **kwargs):
        opened.append(path)
        return read_wal(path, **kwargs)

    monkeypatch.setattr(journal_module, "read_wal", spy)
    reopened = DurableJournal(directory, n_lanes=2)
    assert reopened.next_seq == full_scan == 27
    assert sorted(opened) == sorted(lane[-1][1] for lane in lanes)
    assert not any(read_wal(path).torn for path in opened)
    reopened.close()

    # Reopened again, every final segment is the empty one just opened:
    # its start - 1 still carries the sequence forward.
    opened.clear()
    again = DurableJournal(directory, n_lanes=2)
    assert again.next_seq == full_scan
    assert sorted(path.name for path in opened) == [
        segment_name(lane, full_scan) for lane in (0, 1)
    ]
    again.close()


def test_new_journal_resumes_sequence_monotonically(catalog, tmp_path):
    directory = tmp_path / "durable"
    server = durable_server(catalog, directory)
    server.receive_all(synth_deliveries(catalog, 0, 12))
    server.journal.crash(torn_bytes=5)

    recovered = make_server(catalog)
    report = recover_server(recovered, directory)
    assert report.next_seq == 13

    resumed = DurableJournal(directory)
    assert resumed.next_seq == report.next_seq
    attach_journal(recovered, resumed)
    recovered.receive_all(synth_deliveries(catalog, 12, 15))
    assert resumed.next_seq == 16
    resumed.close()

    # The whole lineage — pre-crash records plus post-recovery appends —
    # replays as one totally ordered history.
    final = make_server(catalog)
    report = recover_server(final, directory)
    assert report.n_replayed == 15
    assert comparable_state(final) == comparable_state(recovered)
