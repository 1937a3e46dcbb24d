"""Torn-write property: damage at EVERY byte offset of the final record.

The crash model: the process died while (or just after) appending the
last frame, leaving either a truncation or flipped bits at the tail.  For
every byte offset inside the final record's frame the reader must either
recover cleanly to a *prefix* of the original records (torn tail) or fail
loudly with :class:`WalCorruptionError` — it may never return a record it
did not write, and never silently pass damaged state through.
"""

import pytest

from repro.durability.journal import DurableJournal, attach_journal, list_segments
from repro.durability.recovery import recover_server
from repro.durability.wal import WalCorruptionError, WriteAheadLog, encode_payload, read_wal

from tests.durability.conftest import (
    comparable_state,
    make_server,
    synth_deliveries,
)

RECORDS = [
    {"seq": 1, "kind": "interaction", "entity_id": "e-01", "duration": 181.25},
    {"seq": 2, "kind": "opinion", "rating": 4.0, "nonce": "c0ffee"},
    {"seq": 3, "kind": "interaction", "entity_id": "e-02", "duration": 42.0},
]


@pytest.fixture(scope="module")
def segment(tmp_path_factory):
    path = tmp_path_factory.mktemp("torn") / "wal.log"
    wal = WriteAheadLog(path)
    for record in RECORDS:
        wal.append_record(encode_payload(record))
    wal.close()
    clean = read_wal(path)
    assert not clean.torn
    return path, path.read_bytes(), clean.offsets


def read_outcome(path):
    """(records, torn) on success, or the raised WalCorruptionError."""
    try:
        result = read_wal(path)
    except WalCorruptionError as error:
        return error
    return result.records, result.torn


class TestEveryTruncationOffset:
    def test_truncation_inside_final_record_recovers_previous(
        self, segment, tmp_path
    ):
        path, data, offsets = segment
        target = tmp_path / "wal.log"
        final_start = offsets[-1]
        for cut in range(final_start, len(data)):
            target.write_bytes(data[:cut])
            result = read_wal(target)
            assert result.records == RECORDS[:-1], f"cut at {cut}"
            assert result.torn == (cut != final_start), f"cut at {cut}"
            assert result.valid_bytes == final_start

    def test_truncation_at_any_earlier_offset_yields_a_prefix(
        self, segment, tmp_path
    ):
        path, data, offsets = segment
        target = tmp_path / "wal.log"
        for cut in range(len(data)):
            target.write_bytes(data[:cut])
            records, torn = read_outcome(target)
            n = len(records)
            assert records == RECORDS[:n], f"cut at {cut}"
            assert torn or cut in (*offsets, len(data), 0), f"cut at {cut}"


class TestEveryBitFlipOffset:
    def test_flip_in_final_record_is_torn_or_loud_never_silent(
        self, segment, tmp_path
    ):
        path, data, offsets = segment
        target = tmp_path / "wal.log"
        final_start = offsets[-1]
        for position in range(final_start, len(data)):
            for bit in (0x01, 0x80):
                damaged = bytearray(data)
                damaged[position] ^= bit
                target.write_bytes(bytes(damaged))
                outcome = read_outcome(target)
                if isinstance(outcome, WalCorruptionError):
                    continue  # loud is acceptable
                records, torn = outcome
                assert torn, f"silent acceptance of flip at {position}"
                assert records == RECORDS[:-1], f"flip at {position}"

    def test_flip_in_earlier_records_never_fabricates_state(
        self, segment, tmp_path
    ):
        path, data, offsets = segment
        target = tmp_path / "wal.log"
        for position in range(offsets[0], offsets[-1]):
            damaged = bytearray(data)
            damaged[position] ^= 0x10
            target.write_bytes(bytes(damaged))
            outcome = read_outcome(target)
            if isinstance(outcome, WalCorruptionError):
                continue  # mid-file damage correctly refuses to replay
            records, _torn = outcome
            # A flip in a length header can only shorten the readable
            # prefix; every surviving record must be an original.
            assert records == RECORDS[: len(records)], f"flip at {position}"


class TestJournalLevelTornTail:
    """The same property one level up: a journal crash with a torn tail
    recovers to exactly the pre-crash acceptance state."""

    @pytest.mark.parametrize("torn_bytes", [1, 5, 11, 64])
    def test_crash_with_garbage_tail_recovers_cleanly(
        self, catalog, tmp_path, torn_bytes
    ):
        directory = tmp_path / "durable"
        server = make_server(catalog)
        journal = DurableJournal(directory)
        attach_journal(server, journal)
        server.receive_all(synth_deliveries(catalog, 0, 30))
        expected = comparable_state(server)
        journal.crash(torn_bytes=torn_bytes)

        recovered = make_server(catalog)
        report = recover_server(recovered, directory)
        assert report.torn_tail
        assert report.n_replayed == 30
        assert comparable_state(recovered) == expected

    def test_truncated_final_frame_loses_only_the_last_accept(
        self, catalog, tmp_path
    ):
        directory = tmp_path / "durable"
        server = make_server(catalog)
        attach_journal(server, DurableJournal(directory))
        server.receive_all(synth_deliveries(catalog, 0, 30))
        server.journal.close()
        [(_start, path)] = list_segments(directory)[0]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])

        recovered = make_server(catalog)
        report = recover_server(recovered, directory)
        assert report.torn_tail
        assert report.n_replayed == 29
        baseline = make_server(catalog)
        baseline.receive_all(synth_deliveries(catalog, 0, 29))
        assert comparable_state(recovered) == comparable_state(baseline)
