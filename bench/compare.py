"""``python -m bench compare A B``: two recorded result sets, side by side.

``A`` and ``B`` are ``results.json`` files written by ``python -m bench
run --out DIR`` (or the directories holding them); ``A`` is the parent,
``B`` the change.  For every workload and end-to-end metric the table
shows both medians with their quartiles and one verdict:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better by more than the bound;
* ``within bound`` — neither;
* ``unresolved`` — either side's own spread (interquartile range over
  median) exceeds the bound, so the runs cannot tell a change from
  noise; when every run of B reads better than every run of A the
  verdict is ``improved`` instead.

The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench.metrics import Metric, registry


def load_runs(path: str | Path) -> list[dict]:
    path = Path(path)
    if path.is_dir():
        path = path / "results.json"
    return [run for run in json.loads(path.read_text())["runs"] if not run["trace"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    change = (b - a) if better == "lower" else (a - b)
    if a == 0:
        return 0.0 if change == 0 else float("inf") if change > 0 else float("-inf")
    return change / abs(a)


def verdict(a: list[float], b: list[float], metric: Metric) -> str:
    if max(spread(a), spread(b)) > metric.bound:
        beats = (lambda x, y: x < y) if metric.better == "lower" else (lambda x, y: x > y)
        return "improved" if all(beats(x, y) for x in b for y in a) else "unresolved"
    change = worsening(statistics.median(a), statistics.median(b), metric.better)
    if change > metric.bound:
        return "regressed"
    if change < -metric.bound:
        return "improved"
    return "within bound"


def rows(a_runs: list[dict], b_runs: list[dict]) -> list[dict]:
    workloads = []
    for run in a_runs + b_runs:
        if run["workload"] not in workloads:
            workloads.append(run["workload"])
    table = []
    for workload in workloads:
        for metric in registry().end_to_end:
            a, b = (
                [
                    run["metrics"][metric.name]
                    for run in runs
                    if run["workload"] == workload and metric.name in run["metrics"]
                ]
                for runs in (a_runs, b_runs)
            )
            if not a or not b:
                continue
            table.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "change": worsening(statistics.median(a), statistics.median(b), metric.better),
                    "bound": metric.bound,
                    "verdict": verdict(a, b, metric),
                }
            )
    return table


def compare(a_path, b_path) -> int:
    table = rows(load_runs(a_path), load_runs(b_path))
    header = f"{'workload':<11} {'metric':<13} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} {'worse by':>9} {'bound':>6}  verdict"
    print(header)
    print("-" * len(header))
    for row in table:
        cells = [
            f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {row['unit']}" for q1, q2, q3 in (row["a"], row["b"])
        ]
        print(
            f"{row['workload']:<11} {row['metric']:<13} {cells[0]:<34} {cells[1]:<34} "
            f"{row['change']:>+9.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in table) else 0
