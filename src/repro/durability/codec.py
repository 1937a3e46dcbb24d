"""Canonical byte-stable serialization shared by snapshots and checkpoints.

Sealed durable state — server snapshots and client checkpoints —
serializes through one codec, so "the same logical state" always means
"the same bytes" and a digest over those bytes is a meaningful
integrity seal.  Canonical form is JSON with sorted keys, no whitespace,
and ``allow_nan=False`` (a NaN would break canonicality: ``nan != nan``
undermines any equality argument built on bytes).  WAL payloads use the
same separators and NaN refusal but keep their field order (see
:mod:`repro.durability.wal`); each frame carries its own checksum.

:func:`json_scalar` is the one scalar encoder behind the per-kind
templates that render hot WAL payloads and snapshot histories straight
to text: an exact ``str``, ``float``, ``int`` or ``None`` goes through
the C-level encoder the generic ``json`` encoder would use for it, and
anything else (``bool``, ``numpy.float64``, any subclass) through the
generic encoder itself, so a template's text is exactly what
``json.dumps`` would have produced for the same value.

:func:`seal_parts` is the snapshot writer's path: the canonical bytes of
a sealed blob, built around the state's canonical bytes.

The module is dependency-free on purpose: the device-side client imports
it for checkpoint sealing, and must not drag the service layer in
through this path (the ``layer-client-service`` lint rule watches the
direct imports; this keeps the transitive closure clean too).
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import Any


class CorruptStateError(ValueError):
    """A sealed state blob failed its integrity check.

    Raised instead of whatever decode exception the damaged payload
    would eventually trigger, so callers can distinguish "this durable
    state is corrupt — refuse to load it" from a programming error.
    """


#: The canonical encoder, built once: ``json.dumps`` with non-default
#: arguments would construct a fresh encoder per call.
_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
).encode


def canonical_json_bytes(obj: Any) -> bytes:
    """The unique canonical encoding of a JSON-compatible object."""
    return _canonical(obj).encode()


def json_scalar(value: Any) -> str:
    """``value``'s compact JSON text, as the canonical encoder writes it.

    A NaN or infinity raises ``ValueError`` like ``allow_nan=False``
    does, so a template that fails here has produced no output yet.
    Anything but an exact ``str``/``float``/``int``/``None`` takes the
    canonical encoder, which renders ``bool`` and numeric subclasses as
    ``json.dumps`` does and refuses what it cannot encode (a container,
    which no template field holds, would come out with sorted keys).
    """
    cls = value.__class__
    if cls is str:
        return encode_basestring_ascii(value)
    # For an exact float or int, ``repr`` is ``float.__repr__`` or
    # ``int.__repr__``, which is what the generic encoder writes.
    if cls is float:
        # ``inf - inf`` and ``nan - nan`` are NaN, which equals nothing.
        if value - value == 0.0:
            return repr(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if cls is int:
        return repr(value)
    if value is None:
        return "null"
    return _canonical(value)


def digest_hex(data: bytes) -> str:
    """Hex SHA-256 of ``data`` — the integrity seal used everywhere here."""
    return hashlib.sha256(data).hexdigest()


def seal(state: dict, kind: str) -> dict:
    """Wrap ``state`` with its format tag and canonical digest."""
    return {
        "format": kind,
        "digest": digest_hex(canonical_json_bytes(state)),
        "state": state,
    }


def seal_parts(body: bytes, kind: str) -> tuple[bytes, bytes, bytes]:
    """``canonical_json_bytes(seal(state, kind))`` around ``body``, the
    state's canonical bytes.

    The sealed blob's canonical form is ``{"digest":…,"format":…,
    "state":…}`` (keys sorted), so it is the state's canonical bytes —
    the very bytes the digest covers — between a short head and tail.
    Returned as ``(head, body, tail)`` so a writer can emit them in turn
    without joining a second copy of a large state.
    """
    head = b'{"digest":%s,"format":%s,"state":' % (
        canonical_json_bytes(digest_hex(body)),
        canonical_json_bytes(kind),
    )
    return head, body, b"}"


def unseal(blob: dict, kind: str) -> dict:
    """Verify a sealed blob and return its inner state.

    Raises :class:`CorruptStateError` when the blob is not a sealed
    mapping of the expected ``kind`` or its digest does not match the
    canonical bytes of the payload — before any caller decodes fields
    out of a damaged payload.
    """
    if not isinstance(blob, dict) or "state" not in blob or "digest" not in blob:
        raise CorruptStateError(f"not a sealed {kind!r} blob")
    if blob.get("format") != kind:
        raise CorruptStateError(
            f"sealed blob has format {blob.get('format')!r}, expected {kind!r}"
        )
    state = blob["state"]
    actual = digest_hex(canonical_json_bytes(state))
    if actual != blob["digest"]:
        raise CorruptStateError(
            f"{kind} digest mismatch: payload hashes to {actual[:16]}…, "
            f"seal says {str(blob['digest'])[:16]}… — refusing to load"
        )
    return state
