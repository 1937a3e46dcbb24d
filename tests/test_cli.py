"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("measure", "pipeline", "query", "figure3", "audit", "redteam",
                        "epochs", "telemetry"):
            args = parser.parse_args(
                [command] if command in ("measure", "figure3") else [command, "--users", "5"]
            )
            assert args.command == command

    def test_world_defaults(self):
        args = build_parser().parse_args(["pipeline"])
        assert args.users == 80
        assert args.days == 120.0
        assert args.seed == 42


class TestCommands:
    def test_measure(self, capsys):
        assert main(["measure", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Yelp" in out
        assert "Figure 1(a)" in out
        assert "Figure 1(c)" in out

    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "dentist-A" in out and "dentist-C" in out
        assert "correlation" in out

    def test_pipeline_small(self, capsys):
        assert main(["pipeline", "--users", "25", "--days", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "opinion gain" in out
        assert "inference MAE" in out

    def test_query_small(self, capsys):
        assert main(
            ["query", "--users", "25", "--days", "40", "--seed", "3",
             "--category", "thai", "--radius", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "Best 'thai'" in out
        assert "Visits per user" in out

    def test_audit_small(self, capsys):
        assert main(["audit", "--users", "15", "--days", "30", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out and "hardened" in out

    def test_epochs_small(self, capsys):
        assert main(["epochs", "--users", "20", "--days", "40", "--seed", "6",
                     "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "epoch" in out
        assert "histories" in out

    def test_telemetry_small(self, capsys):
        assert main(["telemetry", "--users", "20", "--days", "40", "--seed", "6",
                     "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "aggregate digest" in out
        assert "rsp.envelopes.accepted" in out
        assert "== counters ==" in out

    def test_telemetry_json(self, capsys):
        assert main(["telemetry", "--users", "20", "--days", "40", "--seed", "6",
                     "--epochs", "2", "--json", "--aggregate-only"]) == 0
        out = capsys.readouterr().out
        assert '"metrics"' in out and '"spans"' in out
        assert '"scope": "deployment"' not in out

    def test_redteam_small(self, capsys):
        assert main(["redteam", "--users", "40", "--days", "120", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "call-spam" in out and "employee" in out

    def test_recover_rebuilds_a_resharded_run(self, capsys, tmp_path):
        world = ["--users", "20", "--days", "20"]
        durable = str(tmp_path / "durable")
        assert main(["epochs", *world, "--epochs", "3", "--shards", "2",
                     "--reshard", "2:split:0", "--durable-dir", durable]) == 0
        last_row = capsys.readouterr().out.splitlines()[-1].split()
        assert last_row[0] == "3"
        records, histories = last_row[2], last_row[3]
        assert main(["recover", *world, "--shards", "2",
                     "--durable-dir", durable]) == 0
        out = capsys.readouterr().out
        assert "(3 shards)" in out
        assert f"state: {records} records, {histories} histories," in out

    def test_analyze_lists_checkers(self, capsys):
        assert main(["analyze", "--list-checkers"]) == 0
        out = capsys.readouterr().out
        assert "interproc-privacy-taint" in out
        assert "determinism-reachability" in out

    def test_analyze_clean_against_committed_baseline(self, capsys, monkeypatch):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        assert main(["analyze", "src/repro", "--baseline", "analysis_baseline.json"]) == 0
        assert "OK:" in capsys.readouterr().out
