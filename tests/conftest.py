"""Suite-wide fixtures."""

import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "analysis_baseline.json"


@pytest.fixture(scope="session")
def self_analysis(tmp_path_factory):
    """The one analyzer pass over ``src/repro`` against the committed
    baseline, shared by every self-clean test.  Returns the result and
    the fact cache it filled, so a CLI rerun replays instead of
    re-analyzing."""
    from repro.analysis import Baseline, WholeProgramAnalyzer

    cache = tmp_path_factory.mktemp("analysis") / "cache.json"
    # Fingerprints embed repo-relative paths, so run from the repo root
    # exactly as CI does.
    previous = Path.cwd()
    os.chdir(REPO_ROOT)
    try:
        result = WholeProgramAnalyzer(cache_path=cache).run(
            ["src/repro"], baseline=Baseline.load(BASELINE)
        )
    finally:
        os.chdir(previous)
    return result, cache
