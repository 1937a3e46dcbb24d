"""Shared helpers for the per-file rule suite (run through the analyzer)."""

import hashlib
from pathlib import Path

import pytest

from repro.analysis import RULES, AnalysisConfig, WholeProgramAnalyzer, extract
from repro.analysis.engine import AnalysisResult
from repro.analysis.source import Finding, parse_module

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "proj" / "repro"

#: The per-file rule ids.  The whole-program checkers also fire on these
#: fixtures (the upload leaks, for one), so the suite reports only these.
PER_FILE_IDS = frozenset(rule.checker_id for rule in RULES)


def lint(paths, config: AnalysisConfig | None = None) -> AnalysisResult:
    """Analyze ``paths`` and report the per-file rules only."""
    analyzer = WholeProgramAnalyzer(config=config or AnalysisConfig(), select=PER_FILE_IDS)
    return analyzer.run(paths)


def file_findings(path: Path, checker_id: str) -> list[Finding]:
    """One rule's raw findings for one file, straight from extraction."""
    parsed = parse_module(path)
    assert not isinstance(parsed, Finding), parsed
    facts = extract(parsed, AnalysisConfig(), hashlib.sha256(path.read_bytes()).hexdigest())
    return [f for f in facts.findings if f.checker_id == checker_id]


@pytest.fixture
def fixture_root() -> Path:
    return FIXTURE_ROOT


@pytest.fixture
def lint_paths():
    """Run every per-file rule over fixture-relative paths."""

    def run(*relative: str) -> AnalysisResult:
        paths = [FIXTURE_ROOT / rel for rel in relative]
        for path in paths:
            assert path.exists(), f"missing fixture {path}"
        return lint(paths)

    return run


def rule_ids(result: AnalysisResult) -> list[str]:
    return [finding.checker_id for finding in result.findings]
