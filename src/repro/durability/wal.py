"""The write-ahead log file format: append-only, checksummed, torn-tolerant.

One WAL segment is::

    +----------------------+
    | magic "RSPWAL01" (8) |
    +----------------------+
    | frame | frame | ...  |   frame = [length u32 BE][crc32 u32 BE][payload]
    +----------------------+

``payload`` is the compact JSON of one mutation (see
:mod:`repro.durability.journal` for the record kinds): exactly
``json.dumps(payload, separators=(",", ":"), allow_nan=False)``, with the
payload's keys in the order the journal builds them.  The writer takes
the payload already encoded.  The two hot kinds, ``interaction`` and
``opinion``, are rendered by one template each in the journal, filled
in by :func:`~repro.durability.codec.json_scalar`; every other kind goes
through :func:`encode_payload`, one module-level ``json.JSONEncoder``
bound once.  Both refuse a NaN or infinity with ``ValueError`` before
any frame byte is written.  The CRC covers
the payload bytes only; the length prefix is implicitly validated by the
CRC (a corrupted length either points past EOF — a torn tail — or
misframes the payload, which then fails its checksum).

Torn-tail policy — the heart of crash recovery:

* damage that is *physically last* in the file (an incomplete header or
  payload, or a checksum/decode failure on the final frame) is a torn
  write: the process died mid-append.  The reader recovers cleanly to
  the previous record and reports ``torn=True``;
* damage with valid bytes *after* it cannot be a torn write — something
  rewrote the middle of an append-only file.  The reader fails loudly
  with :class:`WalCorruptionError` and never yields a record past the
  damage, because replaying around silent corruption would fabricate
  state.

Appends flush to the OS on every record (a process crash after
``append`` returns cannot lose the record) and ``fsync`` either per
record or at the caller's group-commit points — see
``docs/DURABILITY.md`` for the durability levels.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

WAL_MAGIC = b"RSPWAL01"
_HEADER = struct.Struct(">II")
#: Sanity bound on one frame's payload; anything larger is corruption.
MAX_PAYLOAD_BYTES = 1 << 28
#: The generic payload encoder, built once: ``json.dumps`` with
#: non-default arguments would construct a fresh encoder per record.
_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def encode_payload(payload: dict) -> bytes:
    """A payload's frame bytes, keys in insertion order; NaN refused."""
    return _encode(payload).encode()


class WalCorruptionError(RuntimeError):
    """Mid-file WAL damage that no torn-write could have produced."""


@dataclass
class WalReadResult:
    """Everything one segment read produced."""

    records: list[dict] = field(default_factory=list)
    #: Byte offset where each record's frame starts (crash-matrix tests
    #: truncate at these boundaries).
    offsets: list[int] = field(default_factory=list)
    #: True when the segment ended in a torn (incomplete/corrupt) tail.
    torn: bool = False
    #: Bytes of the valid prefix (magic + complete frames).
    valid_bytes: int = 0


class WriteAheadLog:
    """One append-only segment file."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        exists = self.path.exists() and self.path.stat().st_size > 0
        self._file = open(self.path, "ab")
        if not exists:
            self._file.write(WAL_MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
        self.bytes_written = 0
        self.records_written = 0

    def append_record(self, data: bytes, sync: bool = True) -> int:
        """Frame, checksum, and write one encoded payload; returns frame bytes.

        The buffered write is flushed to the OS before returning, so a
        *process* crash never loses an appended record; ``sync=True``
        additionally ``fsync``s for power-loss durability (``False``
        defers that to the next :meth:`sync_to_disk` — group commit).
        """
        frame = _HEADER.pack(len(data), zlib.crc32(data)) + data
        self._file.write(frame)
        self._file.flush()
        if sync:
            os.fsync(self._file.fileno())
        self.bytes_written += len(frame)
        self.records_written += 1
        return len(frame)

    def sync_to_disk(self) -> None:
        """Force written frames to stable storage (the group-commit point)."""
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()


def read_wal(path: Path, tolerate_torn_tail: bool = True) -> WalReadResult:
    """Read one segment whole, applying the torn-tail policy documented above.

    ``tolerate_torn_tail=False`` turns every torn tail into a
    :class:`WalCorruptionError` — used for non-final segments, whose
    tails were implicitly sealed by the existence of a later segment.
    """
    result = WalReadResult()
    for offset, record in scan_wal(path, result, tolerate_torn_tail):
        result.records.append(record)
        result.offsets.append(offset)
    return result


def scan_wal(
    path: Path, result: WalReadResult, tolerate_torn_tail: bool = True
) -> Iterator[tuple[int, dict]]:
    """Yield ``(offset, record)`` for each valid frame of one segment, in
    file order, each decoded as it is reached, under the same policy as
    :func:`read_wal`.

    When the scan ends, ``result.torn`` and ``result.valid_bytes`` say how
    (its record lists are left alone).  Corruption raises at the damaged
    frame, after the records before it were yielded.
    """
    data = Path(path).read_bytes()
    if not data.startswith(WAL_MAGIC):
        # A file shorter than (or equal to) a magic prefix is a crash
        # during segment creation — an empty, torn segment.  Anything
        # else claiming to be a WAL is corrupt.
        if len(data) <= len(WAL_MAGIC) and WAL_MAGIC.startswith(data):
            if not tolerate_torn_tail and data:
                raise WalCorruptionError(f"{path}: truncated magic header")
            result.torn = bool(data)
            return
        raise WalCorruptionError(f"{path}: bad magic header")
    offset = len(WAL_MAGIC)
    total = len(data)

    def torn(message: str) -> None:
        if not tolerate_torn_tail:
            raise WalCorruptionError(f"{path}: {message}")
        result.torn = True
        result.valid_bytes = offset

    while offset < total:
        if total - offset < _HEADER.size:
            return torn(f"incomplete frame header at offset {offset}")
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if length > MAX_PAYLOAD_BYTES or end > total:
            return torn(f"frame at offset {offset} extends past end of file")
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            if end == total:
                return torn(f"checksum mismatch in final frame at offset {offset}")
            raise WalCorruptionError(
                f"{path}: checksum mismatch at offset {offset} with "
                f"{total - end} valid bytes after it — not a torn tail"
            )
        try:
            record = json.loads(payload)
        except ValueError:
            if end == total:
                return torn(f"undecodable final frame at offset {offset}")
            raise WalCorruptionError(
                f"{path}: undecodable frame at offset {offset} mid-file"
            ) from None
        yield offset, record
        offset = end
    result.valid_bytes = offset
