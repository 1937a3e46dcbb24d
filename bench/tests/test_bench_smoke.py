"""The command end to end, at tiny sizes (``--smoke`` runs are never recorded)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from bench.metrics import registry

ROOT = Path(__file__).resolve().parents[2]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def printed(stdout: str) -> dict[str, set[str]]:
    names: dict[str, set[str]] = {}
    for line in stdout.splitlines()[:-1]:
        workload, metric, _value, _unit = line.split(" ")
        names.setdefault(workload, set()).add(metric)
    return names


def test_smoke_run_prints_every_end_to_end_metric():
    done = bench("run", "--smoke", "--seed", "5")
    assert done.returncode == 0, done.stderr
    names = printed(done.stdout)
    assert set(names) == set(registry().workloads)
    for metrics in names.values():
        assert {m.name for m in registry().end_to_end} | {"fail_frac"} <= metrics
    final = json.loads(done.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0


def test_traced_smoke_run_reports_every_per_layer_metric():
    done = bench("run", "--smoke", "--trace", "--workload", "deploy", "ingest")
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.splitlines()[-1])
    for workload in ("deploy", "ingest"):
        for metric in registry().per_layer:
            assert f"{workload}.{metric.name}" in final["metrics"]
    assert final["metrics"]["deploy.sensing.trace_calls"]["value"] > 0
    assert final["metrics"]["ingest.durability.replayed"]["value"] > 0
    assert "trace target missing" not in done.stderr


def test_smoke_runs_are_never_recorded(tmp_path):
    done = bench("run", "--smoke", "--out", str(tmp_path))
    assert done.returncode == 2
    assert not any(tmp_path.iterdir())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(
        "run", "--workload", "deploy", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
