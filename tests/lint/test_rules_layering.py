"""Layering rule family: the Figure 2 device/service boundary."""

from tests.lint.conftest import lint, rule_ids


class TestClientImportsService:
    def test_client_importing_server_internals_is_flagged(self, lint_paths):
        result = lint_paths("client/bad_import.py")
        assert rule_ids(result) == ["layer-client-service"]
        [violation] = result.findings
        assert "repro.service" in violation.message
        assert violation.line == 3

    def test_client_using_wire_protocol_passes(self, lint_paths):
        result = lint_paths("client/good_client.py")
        assert result.ok


class TestServiceImportsClient:
    def test_service_importing_sensing_is_flagged(self, lint_paths):
        result = lint_paths("service/bad_service.py")
        assert "layer-service-client" in rule_ids(result)

    def test_service_staying_in_layer_passes(self, lint_paths):
        result = lint_paths("service/good_service.py")
        assert result.ok

    def test_relative_imports_resolve_before_matching(self, tmp_path):
        # ``from ..sensing import sensors`` inside repro/service must be
        # recognized as a repro.sensing import.
        pkg = tmp_path / "repro"
        (pkg / "service").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "service" / "__init__.py").write_text("")
        offender = pkg / "service" / "sneaky.py"
        offender.write_text("from ..sensing import sensors\n")
        result = lint([offender])
        assert rule_ids(result) == ["layer-service-client"]


class TestOrchestrationIsExempt:
    def test_orchestration_may_import_both_sides(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "orchestration").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "orchestration" / "__init__.py").write_text("")
        driver = pkg / "orchestration" / "driver.py"
        driver.write_text(
            "from repro.client.app import RSPClient\n"
            "from repro.sensing.sensors import generate_trace\n"
            "from repro.service.server import RSPServer\n"
        )
        result = lint([driver])
        assert result.ok
