"""The per-file rules through the reporters and the analyzer CLI.

The rest of the reporter and CLI cases live in ``tests/analysis/test_cli.py``;
these two run on the per-file rule fixtures.
"""

import json

from repro.analysis import render_json
from repro.analysis.cli import main

from tests.lint.conftest import FIXTURE_ROOT, PER_FILE_IDS, lint


class TestJsonReporter:
    def test_document_shape(self):
        result = lint([FIXTURE_ROOT / "client"])
        document = json.loads(render_json(result))
        assert document["ok"] is False
        assert document["files_analyzed"] == 9  # 8 modules + __init__
        assert document["finding_count"] == len(document["findings"])
        assert document["findings"]
        for finding in document["findings"]:
            assert finding["checker_id"] in PER_FILE_IDS
            assert finding["path"].endswith(".py")
        assert "suppressed" not in document  # listed only with show_suppressed


class TestCliBehaviour:
    def test_clean_paths_exit_zero(self, capsys):
        assert main([str(FIXTURE_ROOT / "world" / "good_rng.py")]) == 0
        assert "OK" in capsys.readouterr().out
