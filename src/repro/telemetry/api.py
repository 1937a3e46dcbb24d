"""The telemetry facade components actually hold.

Every instrumented component keeps a ``telemetry`` attribute that
defaults to :data:`NULL` — a no-op :class:`NullTelemetry` — so the hot
paths pay one attribute lookup and one no-op call when observability is
off (``benchmarks/test_bench_telemetry.py`` pins the enabled overhead
on the maintenance cycle below 5% and reports the measured per-event
cost of intake recording).  The experiment harness
(:mod:`repro.orchestration.epochs`)
creates one real :class:`Telemetry` and installs it on the network, the
server, the issuer, the injector, and every client, so one export
describes the whole deployment.  Exports follow the rules of
:mod:`repro.telemetry.registry`: integer-only arithmetic and canonical
order.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable

from repro.telemetry.registry import AGGREGATE, Counter, Histogram, MetricsRegistry
from repro.telemetry.spans import Span, SpanTimeline


class Telemetry:
    """A metrics registry and a span timeline behind one surface."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanTimeline()

    @property
    def enabled(self) -> bool:
        return True

    # ------------------------------------------------------------ recording

    def inc(self, name: str, n: int = 1, scope: str = AGGREGATE, **labels: object) -> None:
        self.metrics.inc(name, n, scope=scope, **labels)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Iterable[float] | None = None,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> None:
        self.metrics.observe(name, value, buckets=buckets, scope=scope, **labels)

    def observe_many(
        self,
        name: str,
        values,
        buckets: Iterable[float] | None = None,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> None:
        """Record a whole column against one histogram — export-identical
        to observing each value in turn (see
        :meth:`repro.telemetry.registry.MetricsRegistry.observe_many`)."""
        self.metrics.observe_many(name, values, buckets=buckets, scope=scope, **labels)

    def set_gauge(
        self, name: str, value: float, scope: str = AGGREGATE, **labels: object
    ) -> None:
        self.metrics.set_gauge(name, value, scope=scope, **labels)

    def span(
        self,
        name: str,
        start: float,
        end: float,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> Span | None:
        return self.spans.record(name, start, end, scope=scope, **labels)

    # -------------------------------------------------------------- binding

    def counter(self, name: str, scope: str = AGGREGATE, **labels: object) -> Counter:
        """A bound counter (see :meth:`MetricsRegistry.counter`)."""
        return self.metrics.counter(name, scope=scope, **labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> Histogram:
        """A bound histogram (see :meth:`MetricsRegistry.histogram`)."""
        return self.metrics.histogram(name, buckets=buckets, scope=scope, **labels)

    # -------------------------------------------------------------- reading

    def total(self, name: str) -> int:
        return self.metrics.total(name)

    def value(self, name: str, **labels: object) -> object:
        return self.metrics.value(name, **labels)

    # ------------------------------------------------------------- exports

    def export(self, scope: str | None = None) -> dict:
        """The canonical export payload (sorted, scope-filtered)."""
        return {
            "metrics": self.metrics.snapshot(scope),
            "spans": self.spans.snapshot(scope),
        }

    def export_json(self, scope: str | None = None, indent: int | None = None) -> str:
        return json.dumps(
            self.export(scope),
            sort_keys=True,
            indent=indent,
            separators=(",", ": ") if indent else (",", ":"),
        )

    def digest(self, scope: str | None = None) -> str:
        """SHA-256 of the canonical compact export — the golden-pin value."""
        return hashlib.sha256(self.export_json(scope).encode()).hexdigest()


class _NullInstrument:
    """The one instrument :class:`NullTelemetry` binds: records nothing."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullTelemetry(Telemetry):
    """The default no-op sink: every recording call returns immediately.

    A single shared instance (:data:`NULL`) is safe because no recording
    method ever mutates it.
    """

    @property
    def enabled(self) -> bool:
        return False

    def inc(self, name: str, n: int = 1, scope: str = AGGREGATE, **labels: object) -> None:
        return None

    def observe(
        self,
        name: str,
        value: float,
        buckets: Iterable[float] | None = None,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> None:
        return None

    def observe_many(
        self,
        name: str,
        values,
        buckets: Iterable[float] | None = None,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> None:
        return None

    def set_gauge(
        self, name: str, value: float, scope: str = AGGREGATE, **labels: object
    ) -> None:
        return None

    def span(
        self,
        name: str,
        start: float,
        end: float,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> Span | None:
        return None

    def counter(
        self, name: str, scope: str = AGGREGATE, **labels: object
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT


#: The shared no-op sink every component points at until a harness
#: installs a real :class:`Telemetry`.
NULL = NullTelemetry()
