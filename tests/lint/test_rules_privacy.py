"""Privacy rule family: taint into sinks, identity in the service layer."""

from tests.lint.conftest import rule_ids


class TestSinkTaint:
    def test_raw_identity_into_upload_payload_is_flagged(self, lint_paths):
        result = lint_paths("client/bad_upload.py")
        assert rule_ids(result) == ["priv-taint-sink"]
        [violation] = result.findings
        assert "`user_id`" in violation.message
        assert "InteractionUpload" in violation.message
        assert violation.line == 8  # the history_id=user_id keyword

    def test_sanitized_identity_passes(self, lint_paths):
        result = lint_paths("client/good_upload.py")
        assert result.ok

    def test_wire_protocol_envelope_without_identity_passes(self, lint_paths):
        result = lint_paths("client/good_client.py")
        assert result.ok

    def test_taints_hidden_in_wrapper_nodes_are_flagged(self, lint_paths):
        # Regressions for the `_iter_tainted` blind spots: comprehension
        # generators, lambda defaults, and subscripted callees hide their
        # expressions inside non-expr wrapper nodes; f-strings and
        # ternaries are pinned alongside so they cannot regress either.
        result = lint_paths("client/bad_upload_hidden.py")
        assert rule_ids(result) == ["priv-taint-sink"] * 7
        tainted = [
            v.message.split("`")[1] for v in result.findings
        ]
        assert tainted == [
            "user_id",  # comprehension iterable
            "user_id",  # comprehension condition
            "device_id",  # lambda default
            "user_id",  # subscripted callee
            "device_id",  # f-string value
            "user_id",  # f-string format spec
            "user_id",  # ternary branch
        ]


class TestServerIdentity:
    def test_identity_parameter_and_field_in_service_layer(self, lint_paths):
        result = lint_paths("service/bad_service.py")
        ids = rule_ids(result)
        assert ids.count("priv-server-identity") == 2  # def param + class field
        messages = [
            v.message
            for v in result.findings
            if v.checker_id == "priv-server-identity"
        ]
        assert any("rebuild_profile" in m for m in messages)
        assert any("AccountRecord" in m for m in messages)

    def test_rule_only_applies_to_service_packages(self, lint_paths):
        # The same identifier spellings on the client side are fine: the
        # device is *supposed* to know who its user is.
        result = lint_paths("client/bad_upload.py")
        assert "priv-server-identity" not in rule_ids(result)

    def test_server_side_code_without_identities_passes(self, lint_paths):
        result = lint_paths("service/good_service.py")
        assert result.ok


class TestTelemetryLabel:
    def test_identity_in_label_positions_is_flagged(self, lint_paths):
        result = lint_paths("client/bad_telemetry.py")
        ids = rule_ids(result)
        # One per leak site: a bare name on inc(), an attribute on
        # observe(), and an f-string-wrapped name on span().
        assert ids == ["priv-telemetry-label"] * 3
        messages = [v.message for v in result.findings]
        assert any("`user_id`" in m and "`user`" in m for m in messages)
        assert any("`device_id`" in m and "`device`" in m for m in messages)
        assert any("`owner`" in m and "span" in m for m in messages)

    def test_identity_bound_into_an_instrument_is_flagged(self, lint_paths):
        # A bound counter/histogram fixes its labels at bind time, so the
        # binding call is the label position.
        result = lint_paths("serve/bad_bound_telemetry.py")
        assert rule_ids(result) == ["priv-telemetry-label"] * 2
        messages = [v.message for v in result.findings]
        assert any("`user_id`" in m and "counter" in m for m in messages)
        assert any("`device_id`" in m and "histogram" in m for m in messages)

    def test_coarse_labels_and_value_params_pass(self, lint_paths):
        result = lint_paths("client/good_telemetry.py")
        assert result.ok

    def test_rule_fires_outside_service_packages_too(self, lint_paths):
        # Unlike priv-server-identity, label hygiene is global: client-side
        # code records into the same exported registry.
        result = lint_paths("client/bad_telemetry.py")
        assert "priv-telemetry-label" in rule_ids(result)
