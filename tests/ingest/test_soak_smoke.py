"""Soak harness smoke: small-N runs that keep the load generator green.

CI runs these on every push (`make ingest`), so the full-size soak in
``benchmarks/test_bench_ingest.py`` can't rot silently: the same code
path — traffic → bounded queue → batched ingest → report — is exercised
here at a few thousand envelopes, including an overload window that must
engage the shedder.
"""

import pytest

from repro.faults import FaultInjector, Window, overload_plan
from repro.ingest import SoakConfig, run_soak
from repro.telemetry import Telemetry

SMALL = SoakConfig(
    n_users=20_000,
    n_entities=40,
    ticks=8,
    warmup_ticks=2,
    arrivals_per_tick=300,
    drain_limit=350,
    queue_depth=500,
    seed=3,
)


class TestConfigValidation:
    def test_warmup_must_precede_end(self):
        with pytest.raises(ValueError):
            SoakConfig(ticks=5, warmup_ticks=5)

    def test_positive_sizing(self):
        with pytest.raises(ValueError):
            SoakConfig(queue_depth=0)
        with pytest.raises(ValueError):
            SoakConfig(tick_seconds=0.0)


class TestSteadyState:
    def test_clean_soak_accounts_for_everything(self):
        report = run_soak(SMALL)
        assert report.offered == report.admitted + report.shed
        assert report.drained == report.admitted  # final drain empties the queue
        assert report.drained == (
            report.accepted + report.rejected + report.duplicates
        )
        assert report.accepted > 0
        assert report.steady_events_per_sec > 0
        assert report.p99_latency_ms >= 0
        # Latency splits into queue wait (load generation excluded) and
        # per-batch service time.
        assert report.p99_service_ms > 0
        assert report.p99_queue_wait_ms >= 0
        # Under-provisioned drain never sheds in the clean scenario.
        assert not report.shed_engaged

    def test_counts_are_reproducible(self):
        a, b = run_soak(SMALL), run_soak(SMALL)
        for field in (
            "offered",
            "admitted",
            "shed",
            "drained",
            "accepted",
            "rejected",
            "duplicates",
            "stale",
            "max_queue_depth",
        ):
            assert getattr(a, field) == getattr(b, field), field

    def test_as_dict_round_trips_the_counts(self):
        report = run_soak(SMALL)
        payload = report.as_dict()
        assert payload["offered"] == report.offered
        assert payload["shed_engaged"] == report.shed_engaged


class TestOverload:
    def hook(self):
        return FaultInjector(overload_plan(Window(120.0, 300.0), multiplier=4.0))

    def test_surge_engages_the_shedder(self):
        hook = self.hook()
        report = run_soak(SMALL, fault_hook=hook)
        assert hook.surges_applied > 0
        assert report.shed_engaged
        assert report.shed > 0
        assert report.max_queue_depth == SMALL.queue_depth
        # The XOR invariant holds under overload too.
        assert report.offered == report.admitted + report.shed
        assert report.drained == (
            report.accepted + report.rejected + report.duplicates
        )

    def test_surge_report_reaches_the_fault_report(self):
        hook = self.hook()
        run_soak(SMALL, fault_hook=hook)
        assert hook.report().surges_applied == hook.surges_applied

    def test_shed_telemetry_lands_in_shared_sink(self):
        telemetry = Telemetry()
        report = run_soak(SMALL, telemetry=telemetry, fault_hook=self.hook())
        assert telemetry.total("rsp.ingest.admitted") == report.admitted
        assert telemetry.total("rsp.ingest.shed") == report.shed
        assert telemetry.total("rsp.envelopes.accepted") == report.accepted
