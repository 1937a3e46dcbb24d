"""Smoke test for ``scripts/profile_epochs.py`` at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_prints_wall_time_and_both_tables():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["--users", "4", "--days", "3", "--epochs", "2", "--serve-queries", "5"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_epochs.py"), *args, "--top", "5"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    out = done.stdout
    assert "users=4 days=3 epochs=2 seed=2016: unprofiled " in out
    assert "== top 5 by cumulative time ==" in out
    assert "== top 5 by self time ==" in out
    assert "run_epochs" in out
