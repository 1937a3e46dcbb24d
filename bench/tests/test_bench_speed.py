"""The machine-speed probe and the times it scales."""

from __future__ import annotations

import signal
import time

from bench.speed import INTERVAL_S, REFERENCE_S, SpeedProbe
from bench.workloads import Pass


def test_factor_is_the_mean_relative_speed_since_the_mark():
    probe = SpeedProbe()
    probe.samples.extend([9.0, 9.0, REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S])
    assert probe.factor(2) == (1 + 0.5 + 0.25) / 3
    assert probe.factor(0) < probe.factor(2)


def test_an_unsampled_phase_takes_one_sample():
    probe = SpeedProbe()
    mark = probe.mark()
    assert probe.factor(mark) > 0
    assert len(probe.samples) == 1


def test_timer_samples_while_started_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 10 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 3
    assert 0 < probe.spent < 10 * INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) == before


def test_timed_segments_leave_probe_time_out(tmp_path):
    probe = SpeedProbe()
    p = Pass(workdir=tmp_path, probe=probe)
    with p.timed("run"):
        for _ in range(20):
            probe.sample()
    assert 0 <= p.run_s < probe.spent
