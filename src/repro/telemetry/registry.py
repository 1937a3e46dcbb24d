"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

Three design rules make the registry a mergeable CRDT-like value whose
export is a pure function of *what happened*, never of interleaving:

1. **Integer arithmetic only.**  Counters and histogram bucket counts are
   plain ints; histogram sums are fixed-point integers (milli-units, see
   :data:`SUM_SCALE`).  Integer addition is associative and commutative,
   so folding per-shard registries in any order — or accumulating
   observations in any order — lands on the same bits.  Float
   accumulation would not: one shard ingests in delivery order while
   more shards ingest grouped per shard, and a float running sum
   distinguishes the two.
2. **Closed merge semantics.**  ``merge(a, b)`` is defined per
   instrument: counters add, histograms add bucket-wise (requiring equal
   bucket bounds), and gauges take the lexicographic max of their
   ``(version, value)`` pair — last-writer-wins with a deterministic
   tiebreak, matching how :mod:`repro.scale.merge` folds shard results.
   ``merge(a, identity) == a`` and the operation is commutative and
   associative (``tests/telemetry/test_merge_properties.py``).
3. **Canonical order everywhere.**  Metric keys are
   ``(name, sorted-label-tuple)``; snapshots and exports sort by that
   key, so the JSON rendering is byte-stable.

Every metric name carries a :class:`Scope`: ``AGGREGATE`` metrics are
deployment-invariant (identical for any shard/worker count — these are
what the golden snapshot pins), while ``DEPLOYMENT`` metrics describe
one concrete deployment (per-shard batch sizes, pool fallbacks) and are
excluded from the invariant digest.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from collections.abc import Iterable, Mapping

import numpy as np

from repro.telemetry.labels import canonical_labels

#: Fixed-point scale for histogram sums: milli-units.  ``round`` to the
#: nearest integer is deterministic and order-independent per observation.
SUM_SCALE = 1000

#: Deployment-invariant: identical across shard/worker counts.
AGGREGATE = "aggregate"
#: Describes one concrete deployment; excluded from the invariant digest.
DEPLOYMENT = "deployment"

_SCOPES = frozenset({AGGREGATE, DEPLOYMENT})

#: Default histogram bucket upper bounds (generic small-count shape).
DEFAULT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0)

LabelTuple = tuple[tuple[str, str], ...]


class MetricError(ValueError):
    """A metric was used inconsistently with its declaration."""


class Counter:
    """A monotone integer counter."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise MetricError("counters are integer-only; observe() floats instead")
        if n < 0:
            raise MetricError("counters are monotone; cannot add a negative amount")
        self.value += n

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A last-writer-wins value with a deterministic merge.

    Each ``set`` bumps the version; merging two gauges keeps the
    lexicographically larger ``(version, value)`` pair, so folding any
    permutation of registries yields the same winner.
    """

    kind = "gauge"
    __slots__ = ("version", "value")

    def __init__(self) -> None:
        self.version = 0
        self.value = 0.0

    def set(self, value: float) -> None:
        self.version += 1
        self.value = float(value)

    def merge_from(self, other: "Gauge") -> None:
        if (other.version, other.value) > (self.version, self.value):
            self.version = other.version
            self.value = other.value

    def snapshot(self) -> dict:
        return {"version": self.version, "value": self.value}


class Histogram:
    """A fixed-bucket histogram with an exact fixed-point sum.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last bound.  The sum is kept in milli-units
    (``SUM_SCALE``) so it is an integer — order-independent under both
    observation and merge.  Min/max use float comparison, which is also
    order-independent.
    """

    kind = "histogram"
    __slots__ = ("bounds", "bucket_counts", "count", "sum_scaled", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError("histogram bounds must be non-empty and strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum_scaled = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum_scaled += round(value * SUM_SCALE)
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def observe_many(self, values) -> None:
        """Fold a whole column of observations in one call.

        Byte-identical to observing each value in turn: ``searchsorted``
        with ``side="left"`` lands each value in the same bucket as
        ``bisect_left``, and ``np.rint`` rounds half-to-even exactly like
        the builtin ``round`` — so the batched intake path of
        :mod:`repro.ingest` produces the same export as per-record intake.
        """
        if len(values) < 16:
            # Below a handful of values the per-value path is cheaper than
            # the array conversion.
            for value in values:
                self.observe(value)
            return
        column = np.asarray(values, dtype=np.float64)
        per_bucket = np.bincount(
            np.searchsorted(np.asarray(self.bounds), column, side="left"),
            minlength=len(self.bucket_counts),
        )
        counts = self.bucket_counts
        for index, n in enumerate(per_bucket):
            if n:
                counts[index] += int(n)
        self.count += int(column.size)
        self.sum_scaled += int(np.rint(column * SUM_SCALE).astype(np.int64).sum())
        low = float(column.min())
        high = float(column.max())
        self.min = low if self.min is None else min(self.min, low)
        self.max = high if self.max is None else max(self.max, high)

    @property
    def sum(self) -> float:
        return self.sum_scaled / SUM_SCALE

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge_from(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise MetricError("cannot merge histograms with different bucket bounds")
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.sum_scaled += other.sum_scaled
        for value in (other.min, other.max):
            if value is None:
                continue
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum_scaled": self.sum_scaled,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """All instruments of one process/shard, keyed by (name, labels)."""

    def __init__(self) -> None:
        #: name → (kind, scope, histogram bounds or None); a name's
        #: declaration is fixed at first use and enforced forever after.
        self._meta: dict[str, tuple[str, str, tuple[float, ...] | None]] = {}
        self._instruments: dict[tuple[str, LabelTuple], Counter | Gauge | Histogram] = {}
        #: Hot-path cache keyed by the *raw* call shape.  A call site that
        #: repeats (same name/kind/scope/label kwargs/buckets) skips the
        #: declaration checks and label canonicalization — both ran, and
        #: passed, the first time the exact shape was seen.  Values alias
        #: entries of ``_instruments``, which merge_from mutates in place,
        #: so the cache never goes stale.
        self._fast: dict[tuple, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------ recording

    def inc(self, name: str, n: int = 1, scope: str = AGGREGATE, **labels: object) -> None:
        key = (name, "counter", scope, tuple(labels.items()))
        instrument = self._fast.get(key)
        if instrument is None:
            instrument = self._instrument(name, "counter", scope, labels, None)
            self._fast[key] = instrument
        instrument.inc(n)

    def set_gauge(
        self, name: str, value: float, scope: str = AGGREGATE, **labels: object
    ) -> None:
        key = (name, "gauge", scope, tuple(labels.items()))
        instrument = self._fast.get(key)
        if instrument is None:
            instrument = self._instrument(name, "gauge", scope, labels, None)
            self._fast[key] = instrument
        instrument.set(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Iterable[float] | None = None,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> None:
        key = (
            name, "histogram", scope, tuple(labels.items()),
            tuple(buckets) if buckets is not None else None,
        )
        instrument = self._fast.get(key)
        if instrument is None:
            bounds = tuple(float(b) for b in buckets) if buckets is not None else None
            instrument = self._instrument(name, "histogram", scope, labels, bounds)
            self._fast[key] = instrument
        instrument.observe(value)

    def observe_many(
        self,
        name: str,
        values,
        buckets: Iterable[float] | None = None,
        scope: str = AGGREGATE,
        **labels: object,
    ) -> None:
        """Record a column of observations against one histogram.

        Export-identical to calling :meth:`observe` per value (histogram
        state is commutative integer arithmetic); the instrument lookup
        and label canonicalization are paid once per column instead of
        once per value, which is what the batched intake front end
        (:mod:`repro.ingest.columnar`) amortizes.

        An empty column is a no-op that declares nothing: per-record
        intake never touches an instrument it has no value for, so the
        batched path must not conjure a zero-count histogram row either.
        """
        if len(values) == 0:
            return
        key = (
            name, "histogram", scope, tuple(labels.items()),
            tuple(buckets) if buckets is not None else None,
        )
        instrument = self._fast.get(key)
        if instrument is None:
            bounds = tuple(float(b) for b in buckets) if buckets is not None else None
            instrument = self._instrument(name, "histogram", scope, labels, bounds)
            self._fast[key] = instrument
        instrument.observe_many(values)

    def _instrument(
        self,
        name: str,
        kind: str,
        scope: str,
        labels: Mapping[str, object],
        bounds: tuple[float, ...] | None,
    ):
        if scope not in _SCOPES:
            raise MetricError(f"unknown scope {scope!r}; use AGGREGATE or DEPLOYMENT")
        meta = self._meta.get(name)
        if meta is None:
            if kind == "histogram" and bounds is None:
                bounds = DEFAULT_BUCKETS
            self._meta[name] = (kind, scope, bounds)
        else:
            known_kind, known_scope, known_bounds = meta
            if known_kind != kind:
                raise MetricError(f"metric {name!r} is a {known_kind}, not a {kind}")
            if known_scope != scope:
                raise MetricError(
                    f"metric {name!r} was declared {known_scope}-scope; "
                    f"cannot re-declare it {scope}-scope"
                )
            if bounds is not None and bounds != known_bounds:
                raise MetricError(f"metric {name!r} has fixed buckets {known_bounds}")
            bounds = known_bounds
        key = (name, canonical_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            if kind == "counter":
                instrument = Counter()
            elif kind == "gauge":
                instrument = Gauge()
            else:
                instrument = Histogram(bounds or DEFAULT_BUCKETS)
            self._instruments[key] = instrument
        return instrument

    # -------------------------------------------------------------- reading

    def total(self, name: str) -> int:
        """Sum of one counter across all of its label sets (0 if unused)."""
        meta = self._meta.get(name)
        if meta is None:
            return 0
        if meta[0] != "counter":
            raise MetricError(f"total() is for counters; {name!r} is a {meta[0]}")
        return sum(
            instrument.value
            for (metric_name, _), instrument in self._instruments.items()
            if metric_name == name
        )

    def value(self, name: str, **labels: object) -> object:
        """One instrument's scalar value (counter/gauge) or snapshot (histogram)."""
        instrument = self._instruments.get((name, canonical_labels(labels)))
        if instrument is None:
            return None
        if isinstance(instrument, (Counter, Gauge)):
            return instrument.value
        return instrument.snapshot()

    def snapshot(self, scope: str | None = None) -> list[dict]:
        """Canonical sorted rendering of every instrument (optionally one scope)."""
        rows = []
        for (name, labels), instrument in sorted(self._instruments.items()):
            kind, metric_scope, _ = self._meta[name]
            if scope is not None and metric_scope != scope:
                continue
            rows.append(
                {
                    "name": name,
                    "kind": kind,
                    "scope": metric_scope,
                    "labels": dict(labels),
                    **instrument.snapshot(),
                }
            )
        return rows

    # -------------------------------------------------------------- merging

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (commutative, associative)."""
        for name, (kind, scope, bounds) in other._meta.items():
            meta = self._meta.get(name)
            if meta is None:
                self._meta[name] = (kind, scope, bounds)
            elif meta != (kind, scope, bounds):
                raise MetricError(f"conflicting declarations for metric {name!r}")
        for key, instrument in other._instruments.items():
            mine = self._instruments.get(key)
            if mine is None:
                name = key[0]
                kind, _, bounds = self._meta[name]
                if kind == "counter":
                    mine = Counter()
                elif kind == "gauge":
                    mine = Gauge()
                else:
                    mine = Histogram(bounds or DEFAULT_BUCKETS)
                self._instruments[key] = mine
            mine.merge_from(instrument)

    def merged(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """A fresh registry equal to folding self and ``others`` together."""
        result = MetricsRegistry()
        for registry in (self, *others):
            result.merge_from(registry)
        return result

    # ------------------------------------------------------------- exports

    def export_json(self, scope: str | None = None, indent: int | None = None) -> str:
        return json.dumps(
            self.snapshot(scope),
            sort_keys=True,
            indent=indent,
            separators=(",", ": ") if indent else (",", ":"),
        )

    def digest(self, scope: str | None = None) -> str:
        return hashlib.sha256(self.export_json(scope).encode()).hexdigest()
