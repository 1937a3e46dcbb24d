"""CLI and reporters: selection, formats, baseline flags, exit codes.

Whole-program cases run on ``tests/analysis/fixtures``; per-file rule
cases run on ``tests/lint/fixtures`` (``LINT_ROOT``), where ``lint``
reports the per-file rules only.
"""

import json

import pytest

from repro.analysis import all_checks, render_json, render_text
from repro.analysis.cli import main

from tests.analysis.conftest import FIXTURE_ROOT
from tests.lint.conftest import FIXTURE_ROOT as LINT_ROOT
from tests.lint.conftest import lint

BAD = str(FIXTURE_ROOT / "service" / "bad_digest.py")
GOOD = str(FIXTURE_ROOT / "service" / "good_digest.py")

#: Deliberately broken per-file fixtures and the rule each must trip.
BROKEN_FIXTURES = [
    ("client/bad_upload.py", "priv-taint-sink"),
    ("world/bad_random.py", "det-random-module"),
    ("client/bad_import.py", "layer-client-service"),
]


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
        assert main([BAD, "--ignore", "determinism-reachabilty"]) == 2
        assert "determinism-reachabilty" in capsys.readouterr().out

    def test_update_baseline_requires_baseline(self, capsys):
        assert main([BAD, "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().out

    def test_empty_selection_is_a_usage_error(self, capsys):
        # `--select ""` used to silently select *nothing* and exit green —
        # a vacuous pass for any gate built on `--select <rule>`.
        assert main(["--select", " , "]) == 2
        assert "no rule ids parsed" in capsys.readouterr().out

    def test_select_ignore_cancelling_out_is_a_usage_error(self, capsys):
        exit_code = main(["--select", "priv-taint-sink", "--ignore", "priv-taint-sink"])
        assert exit_code == 2
        assert "leaves no rules" in capsys.readouterr().out


class TestSelection:
    def test_ignoring_the_only_firing_checker_is_clean(self, capsys):
        # The whole-program checker and the per-file wall-clock rule both
        # fire on the same `time.time()` read.
        assert main([BAD, "--ignore", "determinism-reachability,det-wall-clock"]) == 0

    def test_selecting_a_non_firing_checker_is_clean(self, capsys):
        assert main([BAD, "--select", "interproc-privacy-taint"]) == 0

    def test_list_checkers(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        listed = [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")]
        assert listed == [check.checker_id for check in all_checks()]
        assert len(set(listed)) == 14  # 12 per-file rules + 2 whole-program checkers

    def test_select_limits_rules(self, capsys):
        exit_code = main(
            [str(LINT_ROOT / "service" / "bad_service.py"), "--select", "priv-server-identity"]
        )
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "priv-server-identity" in out
        assert "layer-service-client" not in out

    def test_ignore_skips_rules(self, capsys):
        exit_code = main(
            [
                str(LINT_ROOT / "service" / "bad_service.py"),
                "--ignore",
                "priv-server-identity,layer-service-client",
            ]
        )
        assert exit_code == 0
        capsys.readouterr()


class TestFormats:
    def test_json_document_shape(self, capsys):
        assert main([str(LINT_ROOT / "client"), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["files_analyzed"] == 9  # 8 modules + __init__
        assert document["finding_count"] == len(document["findings"])
        assert document["findings"]
        for finding in document["findings"]:
            assert set(finding) == {
                "checker_id",
                "path",
                "line",
                "col",
                "function",
                "message",
                "chain",
                "detail",
                "fingerprint",
            }

    def test_suppressed_findings_are_reported_separately(self):
        result = lint([LINT_ROOT / "service" / "suppressed_service.py"])
        document = json.loads(render_json(result, show_suppressed=True))
        assert document["ok"] is True
        assert document["finding_count"] == 0
        assert document["suppressed_count"] >= 2
        assert {f["checker_id"] for f in document["suppressed"]} == {
            "layer-service-client",
            "priv-server-identity",
        }

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
        assert "    chain: " in capsys.readouterr().out

    def test_violation_lines_and_summary(self):
        result = lint([LINT_ROOT / "world" / "bad_random.py"])
        text = render_text(result)
        assert "bad_random.py:3:0: det-random-module" in text
        assert "FAIL: 2 problem(s); 1 file(s) analyzed" in text

    def test_clean_run_reports_ok_and_suppressed_count(self):
        result = lint([LINT_ROOT / "world" / "suppressed_random.py"])
        text = render_text(result)
        assert text.startswith("OK: 1 file(s) analyzed")
        assert "2 suppressed" in text

    def test_show_suppressed_lists_waived_findings(self):
        result = lint([LINT_ROOT / "world" / "suppressed_random.py"])
        text = render_text(result, show_suppressed=True)
        assert "det-random-module" in text
        assert "(suppressed)" in text

    def test_duplicate_findings_are_reported_once(self, tmp_path):
        # The inner and outer sink both reach the same `user_id` node with
        # the same message; the engine reports each finding exactly once.
        nested = tmp_path / "nested.py"
        nested.write_text("Envelope(Envelope(user_id))\n")
        result = lint([nested])
        assert [f.checker_id for f in result.findings] == ["priv-taint-sink"]


class TestBrokenFixturesBothFormats:
    @pytest.mark.parametrize("relpath,expected_rule", BROKEN_FIXTURES)
    def test_text_output_names_the_rule(self, capsys, relpath, expected_rule):
        exit_code = main([str(LINT_ROOT / relpath)])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert expected_rule in out

    @pytest.mark.parametrize("relpath,expected_rule", BROKEN_FIXTURES)
    def test_json_output_names_the_rule(self, capsys, relpath, expected_rule):
        exit_code = main([str(LINT_ROOT / relpath), "--format", "json"])
        assert exit_code == 1
        document = json.loads(capsys.readouterr().out)
        assert expected_rule in {f["checker_id"] for f in document["findings"]}


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
        argv = [BAD, "--baseline", str(baseline), "--select", "interproc-privacy-taint"]
        assert main(argv) == 0
        assert "stale" not in capsys.readouterr().out
        assert main(argv + ["--update-baseline"]) == 0
        assert baseline.read_text() == accepted

    def test_show_suppressed_lists_baselined(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main([BAD, "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        main([BAD, "--baseline", str(baseline), "--show-suppressed"])
        assert "baselined" in capsys.readouterr().out
