"""Reporters and the CLI (`python -m repro.analysis`) on the per-file rules."""

import json

import pytest

from repro.analysis import render_json, render_text
from repro.analysis.cli import main

from tests.lint.conftest import FIXTURE_ROOT, lint

#: The acceptance trio: deliberately broken fixtures and the rule each must trip.
BROKEN_FIXTURES = [
    ("client/bad_upload.py", "priv-taint-sink"),
    ("world/bad_random.py", "det-random-module"),
    ("client/bad_import.py", "layer-client-service"),
]


class TestTextReporter:
    def test_violation_lines_and_summary(self):
        result = lint([FIXTURE_ROOT / "world" / "bad_random.py"])
        text = render_text(result)
        assert "bad_random.py:3:0: det-random-module" in text
        assert "FAIL: 2 problem(s); 1 file(s) analyzed" in text

    def test_clean_run_reports_ok_and_suppressed_count(self):
        result = lint([FIXTURE_ROOT / "world" / "suppressed_random.py"])
        text = render_text(result)
        assert text.startswith("OK: 1 file(s) analyzed")
        assert "2 suppressed" in text

    def test_show_suppressed_lists_waived_findings(self):
        result = lint([FIXTURE_ROOT / "world" / "suppressed_random.py"])
        text = render_text(result, show_suppressed=True)
        assert "det-random-module" in text
        assert "(suppressed)" in text


class TestJsonReporter:
    def test_document_shape(self):
        result = lint([FIXTURE_ROOT / "client"])
        document = json.loads(render_json(result))
        assert document["ok"] is False
        assert document["files_analyzed"] == 9  # 8 modules + __init__
        assert document["finding_count"] == len(document["findings"])
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
        result = lint([FIXTURE_ROOT / "service" / "suppressed_service.py"])
        document = json.loads(render_json(result, show_suppressed=True))
        assert document["ok"] is True
        assert document["finding_count"] == 0
        assert document["suppressed_count"] >= 2
        assert {f["checker_id"] for f in document["suppressed"]} == {
            "layer-service-client",
            "priv-server-identity",
        }


class TestBrokenFixturesBothFormats:
    @pytest.mark.parametrize("relpath,expected_rule", BROKEN_FIXTURES)
    def test_text_output_names_the_rule(self, capsys, relpath, expected_rule):
        exit_code = main([str(FIXTURE_ROOT / relpath)])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert expected_rule in out

    @pytest.mark.parametrize("relpath,expected_rule", BROKEN_FIXTURES)
    def test_json_output_names_the_rule(self, capsys, relpath, expected_rule):
        exit_code = main([str(FIXTURE_ROOT / relpath), "--format", "json"])
        assert exit_code == 1
        document = json.loads(capsys.readouterr().out)
        assert expected_rule in {f["checker_id"] for f in document["findings"]}


class TestCliBehaviour:
    def test_clean_paths_exit_zero(self, capsys):
        assert main([str(FIXTURE_ROOT / "world" / "good_rng.py")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_select_limits_rules(self, capsys):
        exit_code = main(
            [str(FIXTURE_ROOT / "service" / "bad_service.py"), "--select", "priv-server-identity"]
        )
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "priv-server-identity" in out
        assert "layer-service-client" not in out

    def test_ignore_skips_rules(self, capsys):
        exit_code = main(
            [
                str(FIXTURE_ROOT / "service" / "bad_service.py"),
                "--ignore",
                "priv-server-identity,layer-service-client",
            ]
        )
        assert exit_code == 0
        capsys.readouterr()

    def test_empty_selection_is_a_usage_error(self, capsys):
        # `--select ""` used to silently select *nothing* and exit green —
        # a vacuous pass for any gate built on `--select <rule>`.
        assert main(["--select", " , "]) == 2
        assert "no rule ids parsed" in capsys.readouterr().out

    def test_select_ignore_cancelling_out_is_a_usage_error(self, capsys):
        exit_code = main(["--select", "priv-taint-sink", "--ignore", "priv-taint-sink"])
        assert exit_code == 2
        assert "leaves no rules" in capsys.readouterr().out

    def test_duplicate_findings_are_reported_once(self, tmp_path):
        # The inner and outer sink both reach the same `user_id` node with
        # the same message; the engine reports each finding exactly once.
        nested = tmp_path / "nested.py"
        nested.write_text("Envelope(Envelope(user_id))\n")
        result = lint([nested])
        assert [f.checker_id for f in result.findings] == ["priv-taint-sink"]
