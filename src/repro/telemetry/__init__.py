"""Deterministic, privacy-safe observability for the RSP simulation.

The paper's service must run always-on yet can never log who did what —
observability has to be aggregate-only and unlinkable (Sections 4–5).
This package provides the substrate:

* :mod:`repro.telemetry.registry` — counters, gauges, and fixed-bucket
  histograms with integer arithmetic and canonical export order, so
  exports are byte-identical across shard counts;
* :mod:`repro.telemetry.spans` — trace spans on the *simulated* clock;
* :mod:`repro.telemetry.labels` — the closed aggregate-label vocabulary
  (entity categories, shard ids, epoch numbers — never identities);
* :mod:`repro.telemetry.api` — the :class:`Telemetry` facade components
  hold (defaulting to the no-op :data:`NULL` sink);
* :mod:`repro.telemetry.dashboard` — the ``repro telemetry`` CLI view.

See ``docs/OBSERVABILITY.md`` for the metric catalog and the
label-privacy argument.
"""

from repro.telemetry.api import NULL, NullTelemetry, Telemetry
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.labels import (
    ALLOWED_LABEL_KEYS,
    LabelPolicyError,
    canonical_labels,
    format_labels,
    validate_label,
)
from repro.telemetry.registry import (
    AGGREGATE,
    DEPLOYMENT,
    SUM_SCALE,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.telemetry.spans import Span, SpanTimeline

__all__ = [
    "AGGREGATE",
    "ALLOWED_LABEL_KEYS",
    "DEPLOYMENT",
    "NULL",
    "SUM_SCALE",
    "Counter",
    "Gauge",
    "Histogram",
    "LabelPolicyError",
    "MetricError",
    "MetricsRegistry",
    "NullTelemetry",
    "Span",
    "SpanTimeline",
    "Telemetry",
    "canonical_labels",
    "format_labels",
    "render_dashboard",
    "validate_label",
]
