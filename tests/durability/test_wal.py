"""WAL frame format: round trips, checksums, and the torn-tail policy."""

import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability.journal import DurableJournal, list_segments
from repro.durability.wal import (
    MAX_PAYLOAD_BYTES,
    WAL_MAGIC,
    WalCorruptionError,
    WriteAheadLog,
    encode_payload,
    read_wal,
)
from repro.telemetry import Telemetry

PAYLOADS = [
    {"seq": 1, "kind": "interaction", "entity_id": "e-1", "duration": 300.5},
    {"seq": 2, "kind": "opinion", "rating": 4.0, "nonce": "00ff"},
    {"seq": 3, "kind": "review", "text": "unicode: café"},
]


def build_wal(path, payloads=PAYLOADS):
    wal = WriteAheadLog(path)
    for payload in payloads:
        wal.append_record(encode_payload(payload))
    wal.close()
    return path


class TestRoundTrip:
    def test_append_then_read_reproduces_records(self, tmp_path):
        path = build_wal(tmp_path / "wal.log")
        result = read_wal(path)
        assert result.records == PAYLOADS
        assert not result.torn
        assert result.valid_bytes == path.stat().st_size

    def test_fresh_file_starts_with_magic(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        assert (tmp_path / "wal.log").read_bytes() == WAL_MAGIC

    def test_offsets_locate_each_frame(self, tmp_path):
        path = build_wal(tmp_path / "wal.log")
        result = read_wal(path)
        assert result.offsets[0] == len(WAL_MAGIC)
        assert result.offsets == sorted(result.offsets)
        data = path.read_bytes()
        for offset, record in zip(result.offsets, PAYLOADS):
            length, _crc = struct.unpack_from(">II", data, offset)
            assert length > 0
        assert len(result.offsets) == len(PAYLOADS)

    def test_reopen_appends_without_rewriting_magic(self, tmp_path):
        path = build_wal(tmp_path / "wal.log", PAYLOADS[:1])
        wal = WriteAheadLog(path)
        wal.append_record(encode_payload(PAYLOADS[1]))
        wal.close()
        assert read_wal(path).records == PAYLOADS[:2]

    def test_append_counts_bytes_and_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        n = wal.append_record(encode_payload(PAYLOADS[0]))
        wal.close()
        assert wal.records_written == 1
        assert wal.bytes_written == n
        assert (tmp_path / "wal.log").stat().st_size == len(WAL_MAGIC) + n

    def test_nan_payload_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(ValueError):
            wal.append_record(encode_payload({"seq": 1, "value": float("nan")}))
        wal.close()


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def frame_payloads(path):
    """The raw payload bytes of every frame in a segment."""
    data = Path(path).read_bytes()
    offset, payloads = len(WAL_MAGIC), []
    while offset < len(data):
        length, _crc = struct.unpack_from(">II", data, offset)
        offset += 8
        payloads.append(data[offset : offset + length])
        offset += length
    return payloads


class TestPayloadEncoding:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6), max_size=4))
    @example([{"int": 1, "float": 1.0, "none": None, "text": "café ☃ 𝄞 \u2028"}])
    @example([{"seq": 2, "rating": 4.0, "duration": -0.0, "nonce": None}])
    def test_frame_payload_is_compact_json(self, payloads):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "wal.log"
            build_wal(path, payloads)
            assert frame_payloads(path) == [
                json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()
                for payload in payloads
            ]
            assert read_wal(path).records == payloads

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_payload_writes_no_frame(self, tmp_path, bad):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append_record(encode_payload(PAYLOADS[0]))
        size = (tmp_path / "wal.log").stat().st_size
        with pytest.raises(ValueError):
            wal.append_record(encode_payload({"seq": 2, "nested": [1, {"value": bad}]}))
        wal.close()
        assert (tmp_path / "wal.log").stat().st_size == size
        assert wal.records_written == 1
        assert read_wal(tmp_path / "wal.log").records == PAYLOADS[:1]


class TestJournalCounters:
    def wal_rows(self, telemetry):
        return [
            row for row in telemetry.export()["metrics"] if row["name"].startswith("wal.")
        ]

    def test_journal_that_never_appends_declares_no_wal_series(self, tmp_path):
        telemetry = Telemetry()
        journal = DurableJournal(tmp_path, n_lanes=2, telemetry=telemetry)
        journal.sync_to_disk()
        journal.close()
        assert self.wal_rows(telemetry) == []

    def test_counters_match_the_segments(self, tmp_path):
        telemetry = Telemetry()
        journal = DurableJournal(tmp_path, telemetry=telemetry)
        for index in range(5):
            journal.log_issue(f"device-{index}", 2, 60.0 * index)
        journal.close()
        segments = [path for lane in list_segments(tmp_path).values() for _s, path in lane]
        frame_bytes = sum(path.stat().st_size - len(WAL_MAGIC) for path in segments)
        assert telemetry.value("wal.appends") == 5
        assert telemetry.value("wal.bytes") == frame_bytes


class TestTornTailPolicy:
    def test_empty_file_is_an_empty_torn_segment(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"")
        result = read_wal(path)
        assert result.records == [] and not result.torn

    def test_partial_magic_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(WAL_MAGIC[:5])
        result = read_wal(path)
        assert result.records == [] and result.torn

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL0" + b"\x00" * 32)
        with pytest.raises(WalCorruptionError, match="bad magic"):
            read_wal(path)

    def test_incomplete_header_is_torn(self, tmp_path):
        path = build_wal(tmp_path / "wal.log")
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        result = read_wal(path)
        assert result.records == PAYLOADS and result.torn

    def test_frame_past_eof_is_torn(self, tmp_path):
        # The crash() simulation appends 0x7f bytes: the fake header
        # claims a length far beyond MAX_PAYLOAD_BYTES.
        path = build_wal(tmp_path / "wal.log")
        valid = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x7f" * 11)
        result = read_wal(path)
        assert result.records == PAYLOADS and result.torn
        assert result.valid_bytes == valid
        assert struct.unpack(">I", b"\x7f" * 4)[0] > MAX_PAYLOAD_BYTES

    def test_final_frame_checksum_mismatch_is_torn(self, tmp_path):
        path = build_wal(tmp_path / "wal.log")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x40
        path.write_bytes(bytes(data))
        result = read_wal(path)
        assert result.records == PAYLOADS[:-1] and result.torn

    def test_mid_file_damage_raises_not_torn(self, tmp_path):
        path = build_wal(tmp_path / "wal.log")
        result = read_wal(path)
        data = bytearray(path.read_bytes())
        # Flip a payload byte of the *first* frame: valid bytes follow.
        data[result.offsets[0] + 8] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="not a torn tail"):
            read_wal(path)

    def test_strict_mode_raises_on_any_torn_tail(self, tmp_path):
        path = build_wal(tmp_path / "wal.log")
        path.write_bytes(path.read_bytes() + b"\x7f" * 5)
        with pytest.raises(WalCorruptionError):
            read_wal(path, tolerate_torn_tail=False)

    def test_strict_mode_accepts_clean_segments(self, tmp_path):
        path = build_wal(tmp_path / "wal.log")
        assert read_wal(path, tolerate_torn_tail=False).records == PAYLOADS
