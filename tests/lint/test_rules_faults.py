"""Fault-containment rule: only the harness may import repro.faults."""

from tests.lint.conftest import file_findings, lint, rule_ids


class TestFaultsOnlyInHarness:
    def test_client_importing_faults_is_flagged(self, lint_paths):
        result = lint_paths("client/bad_faults.py")
        assert rule_ids(result) == ["faults-only-in-harness"]
        [violation] = result.findings
        assert "repro.faults" in violation.message
        assert violation.line == 3

    def test_orchestration_may_import_faults(self, lint_paths):
        result = lint_paths("orchestration/good_faults_driver.py")
        assert result.ok

    def test_cli_module_is_harness(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        cli = pkg / "cli.py"
        cli.write_text("from repro.faults import FaultPlan\n")
        result = lint([cli])
        assert result.ok

    def test_service_importing_faults_is_flagged(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "service").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "service" / "__init__.py").write_text("")
        offender = pkg / "service" / "server.py"
        offender.write_text("import repro.faults.injector\n")
        result = lint([offender])
        assert rule_ids(result) == ["faults-only-in-harness"]

    def test_code_outside_guarded_root_is_ignored(self, tmp_path):
        loose = tmp_path / "scratch.py"
        loose.write_text("from repro.faults import FaultPlan\n")
        result = lint([loose])
        assert result.ok

    def test_relative_import_of_faults_resolves(self, tmp_path):
        # ``from ..faults import injector`` inside repro/privacy must be
        # recognized as a repro.faults import.
        pkg = tmp_path / "repro"
        (pkg / "privacy").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "privacy" / "__init__.py").write_text("")
        offender = pkg / "privacy" / "sneaky.py"
        offender.write_text("from ..faults import injector\n")
        result = lint([offender])
        assert rule_ids(result) == ["faults-only-in-harness"]

    def test_suppression_comment_waives(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "client").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "client" / "__init__.py").write_text("")
        waived = pkg / "client" / "waived.py"
        waived.write_text(
            "import repro.faults  # repro: allow[faults-only-in-harness]\n"
        )
        result = lint([waived])
        assert result.ok
        assert rule_ids(result) == []
        assert [v.checker_id for v in result.suppressed] == [
            "faults-only-in-harness"
        ]

    def test_one_violation_per_import_statement(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "client").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "client" / "__init__.py").write_text("")
        offender = pkg / "client" / "greedy.py"
        offender.write_text("from repro.faults import FaultPlan, FaultInjector\n")
        assert len(file_findings(offender, "faults-only-in-harness")) == 1
