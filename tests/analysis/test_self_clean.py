"""Dogfood: the analyzer over ``src/repro`` is clean against the
committed baseline — the same invariant CI enforces via ``make check``
and ``make analyze``.  One shared pass (the ``self_analysis`` fixture)
serves every self-clean assertion."""

from dataclasses import fields

import pytest

from repro.analysis import AnalysisConfig, Baseline

from tests.conftest import BASELINE, REPO_ROOT


@pytest.fixture(scope="module")
def self_result(self_analysis):
    return self_analysis[0]


def test_source_tree_is_clean_against_committed_baseline(self_result):
    assert not self_result.parse_errors, self_result.parse_errors
    assert not self_result.stale_baseline, self_result.stale_baseline
    assert not self_result.dead_waivers, [w.render() for w in self_result.dead_waivers]
    assert not self_result.findings, [f.render() for f in self_result.findings]


def test_baseline_entries_all_have_real_justifications(self_result):
    baseline = Baseline.load(BASELINE)
    assert baseline.entries, "committed baseline should not be empty"
    for entry in baseline.entries.values():
        justification = entry.get("justification", "")
        assert justification and "TODO" not in justification, entry


def test_the_whole_tree_is_actually_analyzed(self_result):
    assert self_result.n_files > 100


def test_configured_modules_and_packages_exist():
    """Every module or package a rule scopes itself to by default is real
    code under ``src/repro``: a rule whose target was deleted polices
    nothing and would pass vacuously."""
    src = REPO_ROOT / "src"
    missing = []
    for spec in fields(AnalysisConfig):
        if not spec.name.endswith(("_modules", "_packages")):
            continue
        for dotted in sorted(getattr(AnalysisConfig(), spec.name)):
            path = src.joinpath(*dotted.split("."))
            if not (path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()):
                missing.append(f"{spec.name}: {dotted}")
    assert not missing, missing
