"""CLI behaviour: selection, formats, baseline flags, exit codes."""

import json

from repro.analysis import all_checks
from repro.analysis.cli import main

from tests.analysis.conftest import FIXTURE_ROOT

BAD = str(FIXTURE_ROOT / "service" / "bad_digest.py")
GOOD = str(FIXTURE_ROOT / "service" / "good_digest.py")


class TestExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert main([GOOD]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main([BAD]) == 1
        out = capsys.readouterr().out
        assert "determinism-reachability" in out
        assert "FAIL:" in out

    def test_unknown_select_id_exits_two(self, capsys):
        assert main([BAD, "--select", "no-such-checker"]) == 2
        assert "no-such-checker" in capsys.readouterr().out

    def test_unknown_ignore_id_exits_two(self, capsys):
        assert main([BAD, "--ignore", "merge-purty"]) == 2
        assert "merge-purty" in capsys.readouterr().out

    def test_update_baseline_requires_baseline(self, capsys):
        assert main([BAD, "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().out


class TestSelection:
    def test_ignoring_the_only_firing_checker_is_clean(self, capsys):
        # The whole-program checker and the per-file wall-clock rule both
        # fire on the same `time.time()` read.
        assert main([BAD, "--ignore", "determinism-reachability,det-wall-clock"]) == 0

    def test_selecting_a_non_firing_checker_is_clean(self, capsys):
        assert main([BAD, "--select", "merge-purity"]) == 0

    def test_list_checkers(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        listed = [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")]
        assert listed == [check.checker_id for check in all_checks()]
        assert len(set(listed)) == 15  # 12 per-file rules + 3 whole-program checkers


class TestFormats:
    def test_json_document_shape(self, capsys):
        main([BAD, "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["finding_count"] == len(document["findings"])
        finding = document["findings"][0]
        for key in ("checker_id", "path", "line", "function", "fingerprint", "chain"):
            assert key in finding

    def test_sarif_document_shape(self, capsys):
        main([BAD, "--format", "sarif"])
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "determinism-reachability" in rule_ids
        for sarif_result in run["results"]:
            assert sarif_result["ruleId"] in rule_ids
            location = sarif_result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith("bad_digest.py")
            assert "reproAnalysis/v1" in sarif_result["fingerprints"]

    def test_show_chains_prints_witness(self, capsys):
        main([BAD, "--show-chains"])
        assert "->" in capsys.readouterr().out or "digest" in capsys.readouterr().out


class TestBaselineWorkflow:
    def test_update_then_clean_then_stale(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([BAD, "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        assert main([BAD, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out
        # Against a different (clean) file every entry is stale: exit 1.
        assert main([GOOD, "--baseline", str(baseline)]) == 1
        assert "stale" in capsys.readouterr().out

    def test_select_judges_only_the_selected_baseline_entries(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([BAD, "--baseline", str(baseline), "--update-baseline"]) == 0
        accepted = baseline.read_text()
        assert "determinism-reachability" in accepted
        capsys.readouterr()
        # Entries of unselected ids are neither stale nor rewritten.
        assert main([BAD, "--baseline", str(baseline), "--select", "merge-purity"]) == 0
        assert "stale" not in capsys.readouterr().out
        argv = [BAD, "--baseline", str(baseline), "--select", "merge-purity"]
        assert main(argv + ["--update-baseline"]) == 0
        assert baseline.read_text() == accepted

    def test_show_suppressed_lists_baselined(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main([BAD, "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        main([BAD, "--baseline", str(baseline), "--show-suppressed"])
        assert "baselined" in capsys.readouterr().out
