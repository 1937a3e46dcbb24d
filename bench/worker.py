"""One workload run in its own process: set up, measure, check, report.

Run by :mod:`bench.run` as ``python -m bench worker ...`` with a fixed
environment (one BLAS thread, ``PYTHONHASHSEED=0``, the checkout's own
``src`` on the path).  The last line of standard output is one JSON
object with the run's metrics; everything else goes to standard error.

Set-up is repeated :data:`SETUP_REPEATS` times and the median build time
is reported, so work moved into set-up shows in ``setup_s``.  The timed
phase repeats whole passes of fixed work until ``--seconds`` have
passed.  With ``--trace 1`` untraced and traced passes alternate: the
untraced ones give the overhead baseline and the client's latency
percentiles, the traced ones the per-layer metrics.  Every time is
scaled to the reference speed by :mod:`bench.speed`, per phase.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from bench.layers import TARGETS, layer_metrics, median_or_zero
from bench.metrics import TIME_UNITS, registry
from bench.speed import SpeedProbe
from bench.trace import Tracer
from bench.workloads import WORKLOADS, Pass, SetupWatch, pin_failures

SETUP_REPEATS = 3
#: Query latency percentiles are taken per window of this many
#: consecutive queries (p99 has 10 samples beyond it), and the median
#: over windows is reported: a stall of a few seconds on a shared
#: machine moves a few windows, not the median.
WINDOW = 1000
ROOT = Path(__file__).resolve().parent.parent


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (an observed value, not a blend)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def windowed(latencies, quantiles) -> list[float]:
    """For each quantile, its median over whole windows of ``latencies``."""
    windows = [
        sorted(latencies[start : start + WINDOW])
        for start in range(0, len(latencies) - WINDOW + 1, WINDOW)
    ] or [sorted(latencies)]
    return [statistics.median(nearest_rank(window, q) for window in windows) for q in quantiles]


def import_program(modules, probe: SpeedProbe) -> float:
    spent = probe.spent
    start = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    elapsed = time.perf_counter() - start - (probe.spent - spent)
    import repro

    source = (ROOT / "src").resolve()
    if source not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"repro imported from {repro.__file__}, not from {source}")
    return elapsed


def measure(args) -> dict:
    probe = SpeedProbe()
    probe.start()
    try:
        return measure_with(args, probe)
    finally:
        probe.stop()


def measure_with(args, probe: SpeedProbe) -> dict:
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.smoke]
    mark = probe.mark()
    import_s = import_program(workload.modules, probe)

    watches = []
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        watch = SetupWatch(probe)
        inputs = workload.setup(args.seed, size, watch)
        watches.append(watch)
    setup_factor = probe.factor(mark)
    # The pre-generated load is the benchmark's, not the program's: move
    # it out of the collector's reach so that full collections during
    # the timed phase scan only what the deployment itself allocated.
    gc.collect()
    gc.freeze()

    workdir = Path(args.workdir)
    tracer = Tracer(TARGETS) if args.trace else None
    time_metrics = {m.name for m in registry().per_layer if m.unit in TIME_UNITS}
    passes: list[dict] = []
    layer_runs: list[dict] = []
    try:
        started = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            gc.collect()
            p = Pass(workdir=workdir, probe=probe, tracer=tracer if traced else None)
            mark = probe.mark()
            if traced:
                tracer.reset()
                tracer.install()
            try:
                workload.run_pass(inputs, p)
            finally:
                if traced:
                    tracer.uninstall()
            factor = probe.factor(mark)
            if traced:
                layers = layer_metrics(tracer, p.extras)
                layer_runs.append(
                    {
                        name: value * factor if name in time_metrics else value
                        for name, value in layers.items()
                    }
                )
                if args.out:
                    out = Path(args.out)
                    out.mkdir(parents=True, exist_ok=True)
                    tracer.write_jsonl(
                        out / f"spans-{args.workload}-seed{args.seed}-pass{len(passes)}.jsonl"
                    )
            passes.append(summarize(p, traced, factor))
            done = time.perf_counter() - started >= args.seconds
            if done and (tracer is None or len(passes) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = passes[0]
    run_failures = [
        message
        for p in passes
        for message in pin_failures(args.workload, args.seed, args.smoke, p["digests"])
    ]
    if any(
        (p["digests"], p["state_bytes"]) != (reference["digests"], reference["state_bytes"])
        for p in passes
    ):
        run_failures.append("passes over the same inputs disagree: the run is not deterministic")
    failures = [message for p in passes for message in p["failures"]] + run_failures

    plain = [p for p in passes if not p["traced"]]
    run_s = statistics.median(p["run_s"] for p in plain)
    if tracer is None:
        values = {
            "setup_s": (import_s + statistics.median(w.total for w in watches)) * setup_factor,
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "state_mb": reference["state_bytes"] / 1e6,
        }
        metrics = {metric.name: values[metric.name] for metric in registry().end_to_end}
    else:
        values = {
            name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        for component in ("world", "classifier", "loadgen"):
            values[f"setup.{component}_s"] = setup_factor * statistics.median(
                watch.seconds.get(component, 0.0) for watch in watches
            )
        values["setup.import_s"] = import_s * setup_factor
        for name in ("query_p50", "query_p90", "query_p99"):
            values[f"serve.{name}_us"] = median_or_zero(p[f"{name}_s"] for p in plain) * 1e6
        values["durability.recover_s"] = median_or_zero(s for p in plain for s in p["recover_s"])
        traced_run = statistics.median(p["run_s"] for p in passes if p["traced"])
        values["trace.overhead_ratio"] = traced_run / run_s
        metrics = {metric.name: values[metric.name] for metric in registry().per_layer}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes) + len(run_failures),
        "failures": failures[:20],
        "pass_run_s": [p["run_s"] for p in passes],
        "speed": [p["speed"] for p in passes],
        "query_samples": sum(p["queries"] for p in plain),
        "missing_targets": tracer.missing if tracer is not None else [],
        "metrics": metrics,
    }


def summarize(p: Pass, traced: bool, factor: float) -> dict:
    """What the run keeps of one pass, its times scaled by ``factor``; the
    per-query samples are dropped here so that memory does not grow with
    the number of passes."""
    p50, p90, p99 = windowed(p.latencies, (0.50, 0.90, 0.99))
    return {
        "traced": traced,
        "speed": factor,
        "run_s": p.run_s * factor,
        "recover_s": [seconds * factor for seconds in p.segments.get("recover", [])],
        "query_p50_s": p50 * factor,
        "query_p90_s": p90 * factor,
        "query_p99_s": p99 * factor,
        "queries": len(p.latencies),
        "digests": p.digests,
        "state_bytes": p.state_bytes,
        "attempted": p.attempted,
        "failed": p.failed,
        "failures": p.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    args = parser.parse_args(argv)
    result = measure(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
