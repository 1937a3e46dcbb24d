"""Verdicts of ``python -m bench compare``."""

from __future__ import annotations

import json

from bench.compare import compare, spread, verdict
from bench.metrics import Metric

RUN_S = Metric("run_s", "s", "lower", bound=0.25)
STEADY = [10.0, 10.1, 9.9, 10.0, 10.05]


def scaled(values, factor):
    return [value * factor for value in values]


def test_same_runs_are_within_bound():
    assert verdict(STEADY, list(reversed(STEADY)), RUN_S) == "within bound"


def test_small_drift_is_within_bound():
    assert verdict(STEADY, scaled(STEADY, 1.05), RUN_S) == "within bound"
    # Winning every run counts only when the spread hides the median.
    assert verdict(STEADY, scaled(STEADY, 0.98), RUN_S) == "within bound"


def test_worse_by_more_than_the_bound_regressed():
    assert verdict(STEADY, scaled(STEADY, 1.3), RUN_S) == "regressed"


def test_better_by_more_than_the_bound_improved():
    assert verdict(STEADY, scaled(STEADY, 0.7), RUN_S) == "improved"


def test_direction_follows_the_metric():
    higher = Metric("x", "count", "higher", bound=0.1)
    assert verdict(STEADY, scaled(STEADY, 1.3), higher) == "improved"
    assert verdict(STEADY, scaled(STEADY, 0.7), higher) == "regressed"


def test_noisy_runs_are_unresolved_unless_every_run_wins():
    noisy = [5.0, 10.0, 15.0, 20.0, 8.0]
    assert spread(noisy) > RUN_S.bound
    assert verdict(STEADY, noisy, RUN_S) == "unresolved"
    assert verdict(noisy, [1.0, 1.1, 0.9, 1.2, 1.0], RUN_S) == "improved"


def test_compare_exits_1_on_a_regression(tmp_path, capsys):
    def write(name, factor):
        runs = [
            {
                "workload": "deploy",
                "trace": False,
                "metrics": {"run_s": value, "setup_s": 1.0},
            }
            for value in scaled(STEADY, factor)
        ]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return path

    parent = write("a.json", 1.0)
    assert compare(parent, write("b.json", 1.02)) == 0
    assert compare(parent, write("c.json", 1.5)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any("run_s" in line and line.endswith("regressed") for line in lines)
    assert any("setup_s" in line and line.endswith("within bound") for line in lines)
