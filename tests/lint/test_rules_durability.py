"""Durability rule: WAL append before acceptance commit, writes flushed."""

from tests.lint.conftest import file_findings, lint, rule_ids


class TestWalBeforeAckOrdering:
    def test_commit_before_append_is_flagged(self, lint_paths):
        result = lint_paths("service/bad_wal_ack.py")
        assert rule_ids(result) == ["durability-fsync-before-ack"]
        [violation] = result.findings
        assert "accepted_envelopes" in violation.message
        assert violation.line == 6

    def test_append_before_commit_is_clean(self, lint_paths):
        result = lint_paths("service/good_wal_ack.py")
        assert result.ok

    def test_intake_loop_nonce_burn_before_append_is_flagged(self, lint_paths):
        # Intake (repro.ingest) is where every envelope is acknowledged,
        # through a local binding of the server's nonce table.
        result = lint_paths("ingest/bad_wal_ack.py")
        assert rule_ids(result) == ["durability-fsync-before-ack"]
        [violation] = result.findings
        assert "seen_nonces.add" in violation.message
        assert violation.line == 12

    def test_intake_loop_append_before_nonce_burn_is_clean(self, lint_paths):
        result = lint_paths("ingest/good_wal_ack.py")
        assert result.ok

    def test_nonce_set_add_counts_as_commit(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "service").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "service" / "__init__.py").write_text("")
        offender = pkg / "service" / "intake.py"
        offender.write_text(
            "class S:\n"
            "    def take(self, record, nonce):\n"
            "        self._seen_nonces.add(nonce)\n"
            "        self.journal.log_opinion(record, nonce, None)\n"
        )
        result = lint([offender])
        assert rule_ids(result) == ["durability-fsync-before-ack"]

    def test_commit_call_before_append_is_flagged(self, lint_paths):
        # The server's ``commit_acceptance`` is the whole acceptance commit;
        # the intake loop calls it through a local binding.
        result = lint_paths("ingest/bad_commit_call.py")
        assert rule_ids(result) == ["durability-fsync-before-ack"]
        [violation] = result.findings
        assert "commit_acceptance" in violation.message
        assert violation.line == 9

    def test_commit_call_after_append_is_clean(self, lint_paths):
        result = lint_paths("ingest/good_commit_call.py")
        assert result.ok

    def test_commit_without_any_append_is_clean(self, tmp_path):
        # The helper that *performs* the commit contains no journal call;
        # the ordering check needs both markers in one function.
        pkg = tmp_path / "repro"
        (pkg / "service").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "service" / "__init__.py").write_text("")
        helper = pkg / "service" / "helper.py"
        helper.write_text(
            "class S:\n"
            "    def commit_acceptance(self, nonce, token_id):\n"
            "        self.accepted_envelopes += 1\n"
            "        self._seen_nonces.add(nonce)\n"
            "        self._redeemer._spent.add(token_id)\n"
        )
        result = lint([helper])
        assert result.ok

    def test_outside_service_packages_is_ignored(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "durability").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "durability" / "__init__.py").write_text("")
        # Recovery replays legitimately commit without appending anew.
        replay = pkg / "durability" / "replay.py"
        replay.write_text(
            "def commit(server, nonce):\n"
            "    server.accepted_envelopes += 1\n"
            "    server._seen_nonces.add(nonce)\n"
        )
        result = lint([replay])
        assert result.ok

    def test_one_violation_per_function(self, lint_paths, fixture_root):
        findings = file_findings(
            fixture_root / "service" / "bad_wal_ack.py", "durability-fsync-before-ack"
        )
        assert len(findings) == 1


class TestUnflushedWrites:
    def test_unflushed_write_is_flagged(self, lint_paths):
        result = lint_paths("durability/bad_unflushed.py")
        assert rule_ids(result) == ["durability-fsync-before-ack"]
        [violation] = result.findings
        assert "_file" in violation.message

    def test_flushed_write_is_clean(self, lint_paths):
        result = lint_paths("durability/good_flushed.py")
        assert result.ok

    def test_non_wal_handles_are_ignored(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "durability").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "durability" / "__init__.py").write_text("")
        other = pkg / "durability" / "report.py"
        other.write_text(
            "def dump(handle, text):\n"
            "    handle.write(text)\n"
        )
        result = lint([other])
        assert result.ok

    def test_suppression_comment_waives(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "durability").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "durability" / "__init__.py").write_text("")
        waived = pkg / "durability" / "waived.py"
        waived.write_text(
            "class L:\n"
            "    def append(self, frame):\n"
            "        self._file.write(frame)  "
            "# repro: allow[durability-fsync-before-ack]\n"
        )
        result = lint([waived])
        assert result.ok
        assert [v.checker_id for v in result.suppressed] == [
            "durability-fsync-before-ack"
        ]


class TestSelfClean:
    def test_production_intake_paths_are_clean(self, self_analysis):
        result, _ = self_analysis
        unwaived = [
            f.render()
            for f in result.findings + result.dead_waivers
            if f.checker_id == "durability-fsync-before-ack"
            and f.path.startswith(
                (
                    "src/repro/service/",
                    "src/repro/scale/",
                    "src/repro/durability/",
                    "src/repro/ingest/",
                )
            )
        ]
        assert not unwaived, "\n".join(unwaived)
