"""The wire protocol between the RSP's client and service.

Two record kinds travel over the anonymity network, each wrapped in an
:class:`Envelope` carrying one rate-limiting upload token:

* :class:`~repro.privacy.history_store.InteractionUpload` — one inferred
  user-entity interaction (feeds histories, fraud profiles, and the
  comparative visualizations);
* :class:`~repro.core.aggregation.OpinionUpload` — one inferred rating
  (feeds the inferred-opinion summaries).

Explicit reviews are *not* anonymous — users post them under their account
exactly as on today's services — so they go through
:meth:`repro.service.server.RSPServer.post_review` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregation import OpinionUpload
from repro.privacy.history_store import InteractionUpload
from repro.privacy.tokens import UploadToken

AnonymousRecord = InteractionUpload | OpinionUpload


@dataclass(frozen=True, slots=True)
class Envelope:
    """One anonymous upload: a record plus its spend-once token.

    ``nonce`` is a per-*record* random identifier (not per-attempt): every
    retransmission of the same record carries the same nonce inside a fresh
    envelope (fresh token, fresh channel tag, re-randomized delay), and the
    server accepts each nonce at most once.  That makes bounded
    retransmission over the ack-free anonymous channel safe — duplicates
    are suppressed idempotently instead of double-counting opinions.  The
    nonce is drawn from the device's seeded RNG and carries no identity or
    payload structure; dedup keyed on a payload or ``hash(Ru, e)`` digest
    would either drop legitimate identical records or hand the server a
    linkable identifier (see ``docs/RELIABILITY.md``).  ``None`` preserves
    the legacy no-dedup wire format.
    """

    record: AnonymousRecord
    token: UploadToken | None
    nonce: bytes | None = None
