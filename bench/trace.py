"""Outside-in layer tracing: wrap program functions by dotted name.

The tracer never edits the program.  For a traced pass it replaces each
target attribute (a module-level function or a method on a class) with a
wrapper that records one span per call — name, start, end, parent span
and the current request id (epoch, tick or round) — and restores the
originals afterwards.  Spans live in flat in-memory arrays; they are
written out only at the end of the run.

A target that no longer exists (a function renamed or deleted by a
refactor) is reported in :attr:`Tracer.missing` and skipped, so the
benchmark keeps running across program changes; the layer it fed simply
reads less time.

Self time is a span's duration minus the part of its interval covered by
its child spans.  Layer metrics sum self times, so nested layers never
count the same microsecond twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: Parent index of a span with no parent.
ROOT = -1

#: Name prefix of the benchmark's own timed-segment spans.  They are the
#: roots every layer span nests under; they belong to no layer.
SEGMENT_PREFIX = "bench."


@dataclass(frozen=True)
class Target:
    """One program function to wrap.

    ``span`` names the span recorded per call (``layer.what``); ``None``
    wraps without recording, for a target that only feeds a hook.
    ``before(args, kwargs)`` runs before the span opens and its result is
    passed to ``after(tracer, index, token, args, kwargs, result)``,
    which runs after the span closed.  Hooks record counts at the same
    boundary the span measures.
    """

    dotted: str
    span: str | None
    before: Callable | None = None
    after: Callable | None = None


def resolve(dotted: str) -> tuple[object, str]:
    """The object holding the final attribute of ``dotted``, and its name.

    The longest importable module prefix is imported; the rest of the path
    is walked with ``getattr``.  Raises ``LookupError`` when any part is
    missing.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                raise LookupError(dotted)
        if not hasattr(owner, parts[-1]):
            raise LookupError(dotted)
        return owner, parts[-1]
    raise LookupError(dotted)


class Tracer:
    """Records spans for wrapped targets while a timed segment is open."""

    def __init__(self, targets: Iterable[Target] = (), clock=time.perf_counter) -> None:
        self.targets = tuple(targets)
        self.clock = clock
        #: Targets that could not be resolved at the last :meth:`install`.
        self.missing: list[str] = []
        #: Counts recorded by hooks, keyed by metric name.
        self.counts: Counter = Counter()
        #: Value samples recorded by hooks (e.g. per-query durations).
        self.samples: defaultdict[str, list] = defaultdict(list)
        #: Request id stamped on every new span (epoch, tick or round).
        self.request = 0
        self.active = False
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        # Installed wrappers hold these arrays, so they are cleared in
        # place and never rebound.
        self.kinds = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")

    # ------------------------------------------------------------ storage

    def reset(self) -> None:
        """Drop every recorded span, count and sample."""
        for column in (self.kinds, self.starts, self.ends, self.parents, self.requests):
            del column[:]
        self.request = 0
        self.counts.clear()
        self.samples.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self.starts)

    def name_of(self, index: int) -> str:
        return self._names[self.kinds[index]]

    def _kind(self, name: str) -> int:
        kind = self._name_index.get(name)
        if kind is None:
            kind = self._name_index[name] = len(self._names)
            self._names.append(name)
        return kind

    def _open(self, name: str) -> int:
        """Open a span now, nested under the innermost open span."""
        index = len(self.starts)
        self.kinds.append(self._kind(name))
        self.parents.append(self._stack[-1] if self._stack else ROOT)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = ROOT, request: int = 0) -> int:
        """Append a finished span, for traces built by hand (as in the tests)."""
        index = len(self.starts)
        self.kinds.append(self._kind(name))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.requests.append(request)
        return index

    @contextmanager
    def segment(self, name: str):
        """A timed benchmark segment: a root span during which targets record."""
        index = self._open(SEGMENT_PREFIX + name)
        self.active = True
        try:
            yield index
        finally:
            self.active = False
            self._close(index)

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every resolvable target; remember the ones that are gone."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for target in self.targets:
            try:
                owner, attr = resolve(target.dotted)
            except LookupError:
                self.missing.append(target.dotted)
                continue
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if not callable(original) or isinstance(original, (staticmethod, classmethod, type)):
                self.missing.append(target.dotted)
                continue
            setattr(owner, attr, self._wrap(target, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self.active = False

    def _wrap(self, target: Target, fn):
        tracer = self
        before, after = target.before, target.after
        if target.span is None:

            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.active:
                    after(tracer, ROOT, None, args, kwargs, result)
                return result

            return hooked

        kind = self._kind(target.span)
        add_kind, add_start, add_end = self.kinds.append, self.starts.append, self.ends.append
        add_parent, add_request = self.parents.append, self.requests.append
        ends, stack = self.ends, self._stack
        push, pop = stack.append, stack.pop
        clock = self.clock

        # The wrapper's own bookkeeping and hooks run inside the span they
        # record: tracing overhead is charged to the layer being traced
        # (and shows in trace.overhead_ratio), so that time the layers do
        # not cover (1 - trace.coverage) is time the program spent
        # outside every wrapped function.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = clock()
            token = before(args, kwargs) if before is not None else None
            index = len(ends)
            add_kind(kind)
            add_parent(stack[-1] if stack else ROOT)
            add_request(tracer.request)
            add_end(0.0)
            add_start(start)
            push(index)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, index, token, args, kwargs, result)
            finally:
                pop()
                ends[index] = clock()
            return result

        return traced

    # ------------------------------------------------------------ reading

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def parent_name(self, index: int) -> str | None:
        parent = self.parents[index]
        return None if parent == ROOT else self.name_of(parent)

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of child intervals."""
        return self_times(self.starts, self.ends, self.parents)

    def write_jsonl(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        own = self.self_times()
        with open(path, "w") as handle:
            for index in range(len(self)):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": self.name_of(index),
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                            "request": self.requests[index],
                            "self": own[index],
                        }
                    )
                    + "\n"
                )


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span in a forest given as parallel sequences.

    Children may overlap each other or stick out of their parent (a
    synthetic or clock-skewed trace); only the union of their intervals
    clipped to the parent's interval is subtracted, so self time is never
    negative and never subtracts the same instant twice.
    """
    children: defaultdict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent != ROOT:
            children[parent].append(index)
    own = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        intervals = sorted(
            (max(starts[k], lo), min(ends[k], hi)) for k in kids if ends[k] > lo and starts[k] < hi
        )
        covered = 0.0
        run_start = run_end = None
        for start, end in intervals:
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            elif end > run_end:
                run_end = end
        if run_end is not None:
            covered += run_end - run_start
        own[parent] = max(0.0, own[parent] - covered)
    return own


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_time_by_name(tracer: Tracer) -> dict[str, float]:
    """Summed self time per span name."""
    totals: defaultdict[str, float] = defaultdict(float)
    own = tracer.self_times()
    for index, value in enumerate(own):
        totals[tracer.name_of(index)] += value
    return dict(totals)
