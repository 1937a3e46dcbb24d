"""Each checker fires on its broken fixture and stays quiet on the clean one."""

from tests.analysis.conftest import checker_ids


class TestInterprocPrivacyTaint:
    def test_identity_crossing_call_edge_is_reported(self, analyze):
        result = analyze("client/bad_flow.py", "client/models.py")
        ids = checker_ids(result)
        assert "interproc-privacy-taint" in ids
        sinks = {
            finding.message.split("`")[3]  # `user_id` reaches … `<SinkName>`
            for finding in result.findings
            if finding.checker_id == "interproc-privacy-taint"
        }
        assert "OpinionUpload" in sinks
        assert "Envelope" in sinks

    def test_finding_carries_witness_chain(self, analyze):
        result = analyze("client/bad_flow.py", "client/models.py")
        chains = [
            finding.chain
            for finding in result.findings
            if finding.checker_id == "interproc-privacy-taint"
        ]
        assert chains and all(chain for chain in chains)
        assert any("publish" in step for chain in chains for step in chain)

    def test_sources_name_the_identity_field(self, analyze):
        result = analyze("client/bad_flow.py", "client/models.py")
        assert all(
            "`user_id`" in finding.message
            for finding in result.findings
            if finding.checker_id == "interproc-privacy-taint"
        )

    def test_sanitized_flow_is_clean(self, analyze):
        result = analyze("client/good_flow.py", "client/models.py")
        assert result.ok, [f.message for f in result.findings]


class TestDeterminismReachability:
    def test_clock_and_unordered_iteration_reachable_from_digest(self, analyze):
        result = analyze("service/bad_digest.py")
        findings = [
            finding
            for finding in result.findings
            if finding.checker_id == "determinism-reachability"
        ]
        details = {finding.detail for finding in findings}
        assert "call:time.time" in details
        assert "iter:names" in details

    def test_chain_starts_at_the_report_entry(self, analyze):
        result = analyze("service/bad_digest.py")
        for finding in result.findings:
            assert finding.chain[0].endswith(".digest")

    def test_sorted_iteration_and_injected_clock_are_clean(self, analyze):
        result = analyze("service/good_digest.py")
        assert result.ok, [f.message for f in result.findings]


class TestSuppression:
    def test_inline_allow_moves_finding_to_suppressed(self, analyze):
        result = analyze("service/suppressed_digest.py")
        assert result.ok
        assert [f.checker_id for f in result.suppressed] == [
            "determinism-reachability"
        ]

    def test_all_produced_still_reports_the_suppressed_finding(self, analyze):
        result = analyze("service/suppressed_digest.py")
        assert any(
            finding.detail == "call:time.time" for finding in result.all_produced()
        )


def test_whole_fixture_tree_findings_are_deterministic(analyze):
    first = analyze("")
    second = analyze("")
    assert [f.to_dict() for f in first.findings] == [
        f.to_dict() for f in second.findings
    ]
    assert not first.parse_errors
    assert len(first.findings) >= 4
