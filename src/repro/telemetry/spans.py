"""Trace spans on the simulated timeline.

A span is a named interval of *simulated* time (:mod:`repro.util.clock`
seconds) with aggregate-only labels — never wall-clock, so two runs of
the same seed produce byte-identical timelines.  The snapshot sorts into
canonical ``(start, end, name, labels)`` order, so the export does not
depend on the order spans were recorded in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.telemetry.labels import canonical_labels
from repro.telemetry.registry import AGGREGATE, _SCOPES, MetricError


@dataclass(frozen=True, order=True)
class Span:
    """One named interval of simulated time."""

    start: float
    end: float
    name: str
    labels: tuple[tuple[str, str], ...] = ()
    scope: str = AGGREGATE

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "labels": dict(self.labels),
            "scope": self.scope,
        }


class SpanTimeline:
    """All spans recorded by one process/shard."""

    def __init__(self) -> None:
        self._spans: list[Span] = []

    def record(
        self,
        name: str,
        start: float,
        end: float,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> Span:
        if end < start:
            raise MetricError(f"span {name!r} ends before it starts ({end} < {start})")
        if scope not in _SCOPES:
            raise MetricError(f"unknown scope {scope!r}; use AGGREGATE or DEPLOYMENT")
        span = Span(
            start=float(start),
            end=float(end),
            name=name,
            labels=canonical_labels(labels),
            scope=scope,
        )
        self._spans.append(span)
        return span

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, name: str | None = None) -> list[Span]:
        """Canonically ordered spans, optionally filtered by name."""
        selected = (
            self._spans if name is None else [s for s in self._spans if s.name == name]
        )
        return sorted(selected)

    def snapshot(self, scope: str | None = None) -> list[dict]:
        return [
            span.to_dict()
            for span in sorted(self._spans)
            if scope is None or span.scope == scope
        ]

    def export_json(self, scope: str | None = None, indent: int | None = None) -> str:
        return json.dumps(
            self.snapshot(scope),
            sort_keys=True,
            indent=indent,
            separators=(",", ": ") if indent else (",", ":"),
        )

    def digest(self, scope: str | None = None) -> str:
        return hashlib.sha256(self.export_json(scope).encode()).hexdigest()
