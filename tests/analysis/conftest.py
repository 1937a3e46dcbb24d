"""Shared helpers for the whole-program analysis suite."""

from __future__ import annotations

import hashlib
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    ProjectIndex,
    WholeProgramAnalyzer,
    default_checkers,
    extract,
)
from repro.analysis.engine import AnalysisResult
from repro.analysis.source import Finding, parse_module

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "proj" / "repro"

#: The whole-program checker ids.  The per-file rules also fire on these
#: fixtures (``det-wall-clock`` in the digest ones), so the fixture suite
#: reports only these.
WHOLE_PROGRAM_IDS = frozenset(checker.checker_id for checker in default_checkers())


@pytest.fixture
def fixture_root() -> Path:
    return FIXTURE_ROOT


@pytest.fixture
def analyze():
    """Run the analyzer over fixture-relative paths, reporting the
    whole-program checkers."""

    def run(*relative: str, baseline=None, cache=None, config=None) -> AnalysisResult:
        paths = [FIXTURE_ROOT / rel for rel in relative]
        for path in paths:
            assert path.exists(), f"missing fixture {path}"
        analyzer = WholeProgramAnalyzer(
            config=config or AnalysisConfig(), select=WHOLE_PROGRAM_IDS, cache_path=cache
        )
        return analyzer.run(paths, baseline=baseline)

    return run


def write_project(root: Path, files: dict[str, str]) -> Path:
    """Materialise ``{relpath: source}`` as an importable package tree.

    Every intermediate directory gets an ``__init__.py`` so
    ``module_name_for`` derives dotted names relative to ``root``.
    """
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        directory = path.parent
        while directory != root:
            (directory / "__init__.py").touch()
            directory = directory.parent
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def build_index(
    root: Path, files: dict[str, str], config: AnalysisConfig | None = None
) -> ProjectIndex:
    """Extract facts for an inline project and build its index."""
    config = config or AnalysisConfig()
    write_project(root, files)
    facts = []
    for path in sorted(root.rglob("*.py")):
        parsed = parse_module(path)
        assert not isinstance(parsed, Finding), parsed
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        facts.append(extract(parsed, config, digest))
    return ProjectIndex.build(config, facts)


def checker_ids(result: AnalysisResult) -> list[str]:
    return [finding.checker_id for finding in result.findings]
