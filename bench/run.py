"""``python -m bench run``: run workloads in fresh processes, print metrics.

Each run of a workload is a fresh ``python -m bench worker`` process with
a fixed environment: one BLAS/OpenMP thread, ``PYTHONHASHSEED=0``, no
bytecode writes, and the checkout's own ``src`` as the only program
path.  Workloads run round-robin across repeats, so a slow spell of the
machine spreads over all of them instead of landing on one.

Every metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the medians over repeats.  The exit code
is 0 when every correctness check passed, 1 when one failed or a worker
died, and 2 when the program's source is not there to measure.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from bench.metrics import registry

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 2016
#: A worker that runs longer than this is killed, so that one
#: single-workload run ends within 180 s.
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    """A worker process died, timed out, or printed no result."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, out) -> dict:
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    command = [
        sys.executable, "-m", "bench", "worker",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--workdir", str(workdir),
    ]
    if smoke:
        command.append("--smoke")
    if out:
        command += ["--out", str(out)]
    process = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload}: worker killed after {WORKER_TIMEOUT_S} s") from None
    finally:
        # Interrupted or timed out: never leave the worker running, nor
        # the files a killed worker could not remove.
        if process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited with code {process.returncode}")
    return json.loads(lines[-1])


def print_run(result: dict) -> None:
    workload = result["workload"]
    units = registry().by_name
    for name, value in result["metrics"].items():
        print(f"{workload} {name} {value!r} {units[name].unit}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"{workload} fail_frac {fail_frac!r} ratio")
    print(f"{workload} operations {result['attempted']} count")
    if not result["trace"]:
        print(f"{workload} query_samples {result['query_samples']} count")
    for target in result["missing_targets"]:
        print(f"{workload}: trace target missing, skipped: {target}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"{workload}: CHECK FAILED: {failure}", file=sys.stderr)


def summary(results: list[dict]) -> dict:
    """Medians over repeats, as the one-line JSON result."""
    workloads = sorted({result["workload"] for result in results}, key=registry().workloads.index)
    metrics = {}
    for workload in workloads:
        runs = [result for result in results if result["workload"] == workload]
        for name in runs[0]["metrics"]:
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {
                "value": statistics.median(run["metrics"][name] for run in runs),
                "unit": registry().by_name[name].unit,
            }
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke and args.out:
        print("error: smoke runs are for tests and are never recorded", file=sys.stderr)
        return 2
    # Turn a termination request into an exception, so that the worker
    # running at the time is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = args.workload or list(registry().workloads)
    # A smoke run measures a single pass.
    seconds = 0 if args.smoke else args.seconds
    results = []
    try:
        for repeat in range(args.repeat):
            for workload in workloads:
                result = run_worker(workload, args.seed, seconds, args.trace, args.smoke, args.out)
                result["repeat"] = repeat
                results.append(result)
                print_run(result)
                sys.stdout.flush()
    except WorkerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.json").write_text(
            json.dumps(
                {"seed": args.seed, "seconds": seconds, "runs": results}, indent=1
            )
            + "\n"
        )
    final = summary(results)
    print(json.dumps(final))
    return 0 if final["correct"] else 1
