"""Label policy: what a metric or span is allowed to say.

The paper's RSP can never log who did what — observability must be
aggregate-only and unlinkable (Section 4.2, Section 5).  This module is
the runtime half of that guarantee (the static half is the
``priv-telemetry-label`` rule in :mod:`repro.analysis.rules`): every
label attached to a counter, gauge, histogram, or span passes through
:func:`canonical_labels`, which rejects

* label *keys* outside a closed vocabulary of aggregate dimensions
  (entity categories, shard indices, epoch numbers, coarse reasons) —
  a ``user_id=`` or ``history_id=`` label cannot even be spelled;
* label *values* that look like identifiers rather than categories: long
  values, values with characters outside a category alphabet, and any
  value containing a 16+-digit hex run (the shape of ``hash(Ru, e)``
  record keys, envelope nonces, and channel tags).

Values that pass are canonicalized to strings and sorted by key, so the
same labels always produce the same metric key — a precondition for the
byte-identical exports pinned by ``tests/telemetry``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

#: The closed vocabulary of label keys.  Everything here names an
#: aggregate dimension; nothing here can name a user, device, history,
#: nonce, or channel.
ALLOWED_LABEL_KEYS: frozenset[str] = frozenset(
    {
        "entity_kind",  # category of entity ("restaurant", "dentist", ...)
        "record",       # record kind ("interaction" | "opinion")
        "reason",       # coarse rejection/refusal reason
        "shard",        # shard index (deployment scope)
        "epoch",        # epoch number
        "kind",         # injected-fault kind, span kind, ...
        "phase",        # maintenance phase
        "outcome",      # coarse outcome category
        "mode",         # deployment/config mode
    }
)

#: Longest value a label may carry; identifiers are longer, categories are not.
MAX_VALUE_LENGTH = 24

_VALUE_PATTERN = re.compile(r"^[a-z0-9][a-z0-9_.:\-]*$")
#: The shape of hex-encoded identifiers: hash(Ru, e) keys, nonces, tags.
_HEX_RUN = re.compile(r"[0-9a-f]{16}")


class LabelPolicyError(ValueError):
    """A label key or value violated the aggregate-only policy."""


def validate_label(key: str, value: object) -> str:
    """Check one label pair; returns the canonical string value."""
    if key not in ALLOWED_LABEL_KEYS:
        raise LabelPolicyError(
            f"label key {key!r} is not in the aggregate-label vocabulary "
            f"{sorted(ALLOWED_LABEL_KEYS)}; telemetry may never carry "
            "identities, record keys, or free-form dimensions"
        )
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise LabelPolicyError(
            f"label {key!r} carries a {type(value).__name__}; only short "
            "category strings and small integers are allowed"
        )
    text = str(value)
    if len(text) > MAX_VALUE_LENGTH:
        raise LabelPolicyError(
            f"label {key}={text!r} exceeds {MAX_VALUE_LENGTH} characters; "
            "values that long are identifiers, not categories"
        )
    if isinstance(value, str) and not _VALUE_PATTERN.fullmatch(text):
        raise LabelPolicyError(
            f"label {key}={text!r} is not a lowercase category token"
        )
    if _HEX_RUN.search(text):
        raise LabelPolicyError(
            f"label {key}={text!r} contains a 16+-char hex run — the shape "
            "of hash(Ru, e) keys, nonces, and channel tags; unlinkability "
            "forbids them in telemetry"
        )
    return text


def canonical_labels(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    """Validate and canonicalize a label mapping to a sorted tuple."""
    return tuple(
        (key, validate_label(key, labels[key])) for key in sorted(labels)
    )


def format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    """Render canonical labels as ``{k=v,k=v}`` (empty string when none)."""
    if not labels:
        return ""
    return "{" + ",".join(f"{key}={value}" for key, value in labels) + "}"
