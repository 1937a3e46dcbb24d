"""Incremental cache correctness and the baseline workflow."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.analysis import AnalysisConfig, Baseline, WholeProgramAnalyzer, all_checks
from repro.analysis.baseline import _TODO

from tests.analysis.conftest import write_project

BROKEN = """
import time


def digest(frame):
    return len(frame), time.time()
"""

FIXED = """
def digest(frame, as_of):
    return len(frame), as_of
"""


def run(root, cache=None, baseline=None, config=None):
    analyzer = WholeProgramAnalyzer(
        config=config or AnalysisConfig(), cache_path=cache
    )
    return analyzer.run([root], baseline=baseline)


class TestIncrementalCache:
    def test_warm_run_hits_every_file_and_agrees(self, tmp_path):
        root = write_project(tmp_path / "proj", {"repro/svc.py": BROKEN})
        cache = tmp_path / "cache.json"
        cold = run(root, cache=cache)
        assert cold.n_cached == 0 and cold.n_files > 0
        warm = run(root, cache=cache)
        assert warm.n_cached == warm.n_files == cold.n_files
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in cold.findings
        ]

    def test_editing_a_file_invalidates_only_its_entry(self, tmp_path):
        root = write_project(
            tmp_path / "proj",
            {"repro/svc.py": BROKEN, "repro/other.py": "def helper(x):\n    return x\n"},
        )
        cache = tmp_path / "cache.json"
        cold = run(root, cache=cache)
        assert cold.findings
        (root / "repro/svc.py").write_text(FIXED, encoding="utf-8")
        warm = run(root, cache=cache)
        assert warm.ok
        # other.py (and the __init__ files) came from cache; svc.py did not.
        assert warm.n_cached == warm.n_files - 1

    def test_config_change_drops_the_whole_cache(self, tmp_path):
        root = write_project(tmp_path / "proj", {"repro/svc.py": BROKEN})
        cache = tmp_path / "cache.json"
        run(root, cache=cache)
        changed = replace(AnalysisConfig(), report_entry_names=frozenset({"digest"}))
        rerun = run(root, cache=cache, config=changed)
        assert rerun.n_cached == 0

    def test_program_replay_preserves_suppressed_findings(self, tmp_path):
        suppressed = BROKEN.replace(
            "time.time()",
            "time.time()  # repro: allow[determinism-reachability, det-wall-clock]",
        )
        root = write_project(tmp_path / "proj", {"repro/svc.py": suppressed})
        cache = tmp_path / "cache.json"
        cold = run(root, cache=cache)
        warm = run(root, cache=cache)
        assert warm.n_cached == warm.n_files
        assert [f.to_dict() for f in warm.suppressed] == [
            f.to_dict() for f in cold.suppressed
        ]
        assert warm.ok and warm.suppressed

    def test_program_replay_applies_a_fresh_baseline(self, tmp_path):
        from repro.analysis import Baseline

        root = write_project(tmp_path / "proj", {"repro/svc.py": BROKEN})
        cache = tmp_path / "cache.json"
        cold = run(root, cache=cache)
        assert cold.findings
        baseline = Baseline(
            entries={f.fingerprint: {"fingerprint": f.fingerprint} for f in cold.findings}
        )
        warm = run(root, cache=cache, baseline=baseline)
        assert warm.n_cached == warm.n_files
        assert warm.ok and len(warm.baselined) == len(cold.findings)

    def test_checker_selection_keys_the_program_cache(self, tmp_path):
        root = write_project(tmp_path / "proj", {"repro/svc.py": BROKEN})
        cache = tmp_path / "cache.json"
        assert run(root, cache=cache).findings
        firing = {"determinism-reachability", "det-wall-clock"}
        subset = {c.checker_id for c in all_checks()} - firing
        filtered = WholeProgramAnalyzer(select=subset, cache_path=cache).run([root])
        assert filtered.n_cached == filtered.n_files  # replayed, then filtered
        assert filtered.ok  # must not report the unselected findings

    def test_config_fingerprint_covers_every_field(self, tmp_path):
        # `determinism-reachability` reads rng_modules, so a cache filled
        # under the default config must not answer for a stricter one.
        root = write_project(
            tmp_path / "proj",
            {
                "repro/util/rng.py": """
                    import numpy


                    def make_rng(seed):
                        return numpy.random.default_rng(seed)
                    """,
                "repro/svc.py": """
                    from repro.util.rng import make_rng


                    def digest(seed):
                        return make_rng(seed)
                    """,
            },
        )
        strict = replace(AnalysisConfig(), rng_modules=frozenset())
        select = {"determinism-reachability"}
        cold = WholeProgramAnalyzer(config=strict, select=select).run([root])
        assert len(cold.findings) == 1
        cache = tmp_path / "cache.json"
        assert run(root, cache=cache).ok  # the default config sanctions rng.py
        warm = WholeProgramAnalyzer(config=strict, select=select, cache_path=cache).run([root])
        assert [f.to_dict() for f in warm.findings] == [f.to_dict() for f in cold.findings]

    def test_config_fingerprint_ignores_hash_seed(self):
        script = "from repro.analysis import AnalysisConfig; print(AnalysisConfig().fingerprint())"
        prints = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(prints) == 1

    def test_corrupt_cache_is_treated_as_absent(self, tmp_path):
        root = write_project(tmp_path / "proj", {"repro/svc.py": BROKEN})
        cache = tmp_path / "cache.json"
        cache.write_text("{not json", encoding="utf-8")
        result = run(root, cache=cache)
        assert result.n_cached == 0 and result.findings


class TestBaseline:
    def findings_for(self, tmp_path):
        root = write_project(tmp_path / "proj", {"repro/svc.py": BROKEN})
        return root, run(root).findings

    def test_split_new_vs_baselined(self, tmp_path):
        root, findings = self.findings_for(tmp_path)
        assert findings
        baseline = Baseline(
            entries={findings[0].fingerprint: {"fingerprint": findings[0].fingerprint}}
        )
        result = run(root, baseline=baseline)
        assert len(result.baselined) == 1
        assert len(result.findings) == len(findings) - 1

    def test_stale_entry_fails_the_run(self, tmp_path):
        root, _ = self.findings_for(tmp_path)
        baseline = Baseline(entries={"deadbeefdeadbeef": {"fingerprint": "deadbeefdeadbeef"}})
        result = run(root, baseline=baseline)
        assert result.stale_baseline and not result.ok

    def test_updated_with_preserves_justifications(self, tmp_path):
        _, findings = self.findings_for(tmp_path)
        justified = "clock is part of the report contract here"
        baseline = Baseline(
            entries={
                findings[0].fingerprint: {
                    "fingerprint": findings[0].fingerprint,
                    "justification": justified,
                }
            }
        )
        document = baseline.updated_with(findings)
        by_fp = {entry["fingerprint"]: entry for entry in document["findings"]}
        assert by_fp[findings[0].fingerprint]["justification"] == justified
        for finding in findings[1:]:
            assert by_fp[finding.fingerprint]["justification"] == _TODO

    def test_fingerprint_is_line_independent(self, tmp_path):
        root = write_project(tmp_path / "proj", {"repro/svc.py": BROKEN})
        before = run(root).findings
        shifted = "# leading comment\n# another\n" + BROKEN
        (root / "repro/svc.py").write_text(shifted, encoding="utf-8")
        after = run(root).findings
        assert {f.fingerprint for f in before} == {f.fingerprint for f in after}
        assert {f.line for f in before} != {f.line for f in after}

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}), encoding="utf-8")
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_load_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert baseline.entries == {}
