"""Every metric the benchmark reports, as ``BENCHMARK.json`` declares it.

``BENCHMARK.json`` at the repository root is the one source of the
metric names, units, directions and bounds, of the workload names and
of the run length.  End-to-end metrics are what a user of the
deployment sees; each carries the bound (a share of the parent's median)
by which it may worsen before a change counts as a regression.
Per-layer metrics come from the traced run only and carry no bound; a
per-layer metric's layer is the first dotted part of its name, and
bench/README.md names the end-to-end metric each should move.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``, ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
#: Units of measured times; the worker scales these to the reference speed.
TIME_UNITS = frozenset({"s", "ms", "us"})


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: the tolerated worsening, as a share of the median.
    bound: float | None = None


@dataclass(frozen=True)
class Registry:
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]
    workloads: tuple[str, ...]
    run_seconds: int

    @functools.cached_property
    def by_name(self) -> dict[str, Metric]:
        return {metric.name: metric for metric in self.end_to_end + self.per_layer}


@functools.cache
def registry(path: Path = MANIFEST) -> Registry:
    """The registry ``BENCHMARK.json`` declares, read once per process."""
    manifest = json.loads(path.read_text())
    return Registry(
        end_to_end=tuple(Metric(**entry) for entry in manifest["end_to_end"]),
        per_layer=tuple(Metric(**entry) for entry in manifest["per_layer"]),
        workloads=tuple(entry["name"] for entry in manifest["workloads"]),
        run_seconds=manifest["run_seconds"],
    )


def check_registry(reg: Registry) -> list[str]:
    """Every way the registry breaks the naming rules or the caps."""
    problems = []
    metrics = reg.end_to_end + reg.per_layer
    names = [metric.name for metric in metrics]
    if len(reg.end_to_end) > MAX_END_TO_END:
        problems.append(f"{len(reg.end_to_end)} end-to-end metrics > {MAX_END_TO_END}")
    if len(reg.per_layer) > MAX_PER_LAYER:
        problems.append(f"{len(reg.per_layer)} per-layer metrics > {MAX_PER_LAYER}")
    for name in names + list(reg.workloads):
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    for name in set(names):
        if names.count(name) > 1:
            problems.append(f"metric name {name!r} used twice")
    for metric in metrics:
        if not UNIT_RE.match(metric.unit):
            problems.append(f"bad unit {metric.unit!r} on {metric.name}")
        if metric.better not in ("lower", "higher"):
            problems.append(f"bad direction {metric.better!r} on {metric.name}")
    for metric in reg.end_to_end:
        if metric.bound is None or not 0.10 <= metric.bound <= 0.25:
            problems.append(f"bound of {metric.name} outside [0.10, 0.25]")
    for metric in reg.per_layer:
        if metric.bound is not None:
            problems.append(f"per-layer metric {metric.name} has a bound")
    return problems
