"""Metric naming rules and caps, and the shape of BENCHMARK.json."""

from __future__ import annotations

import json

import pytest

from bench.metrics import (
    MANIFEST,
    MAX_END_TO_END,
    MAX_PER_LAYER,
    NAME_RE,
    Metric,
    Registry,
    check_registry,
    registry,
)
from bench.workloads import WORKLOADS


def test_registry_follows_the_rules():
    assert check_registry(registry()) == []


@pytest.mark.parametrize("name", ["run_s", "serve.hit_p50_us", "a", "9x", "a-b.c_d"])
def test_name_grammar_accepts(name):
    assert NAME_RE.match(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "µs"])
def test_name_grammar_rejects(name):
    assert not NAME_RE.match(name)


def test_caps_and_bounds_are_enforced():
    e2e = tuple(Metric(f"m{i}", "s", "lower", 0.2) for i in range(MAX_END_TO_END + 1))
    layer = tuple(Metric(f"l.m{i}", "s", "lower") for i in range(MAX_PER_LAYER + 1))
    problems = check_registry(Registry(e2e, layer, ("w",), 10))
    assert f"{MAX_END_TO_END + 1} end-to-end metrics > {MAX_END_TO_END}" in problems
    assert f"{MAX_PER_LAYER + 1} per-layer metrics > {MAX_PER_LAYER}" in problems
    loose = Registry((Metric("run_s", "s", "lower", 0.5),), (), ("w",), 10)
    assert check_registry(loose) == ["bound of run_s outside [0.10, 0.25]"]
    twice = Registry((Metric("run_s", "s", "lower", 0.2),) * 2, (), ("w",), 10)
    assert check_registry(twice) == ["metric name 'run_s' used twice"]


def test_manifest_has_exactly_the_contract_keys():
    manifest = json.loads(MANIFEST.read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["bench"]
    assert manifest["command"] == ["python3", "-m", "bench", "run"]
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


def test_every_declared_workload_is_implemented():
    assert set(registry().workloads) == set(WORKLOADS)


def test_setup_time_is_gated_with_the_largest_bound():
    end_to_end = registry().end_to_end
    setup = next(m for m in end_to_end if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in end_to_end)
