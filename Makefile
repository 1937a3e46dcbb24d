# Developer entry points.  `make check` is the full gate CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check lint ruff test bench paper chaos scale bench-shards telemetry bench-telemetry incremental bench-incremental analyze bench-analyze durable bench-durable ingest bench-ingest serve bench-serve reshard bench-reshard sensing bench-e2e profile-epochs profile-workload

check:
	bash scripts/check.sh

lint:
	$(PYTHON) -m repro.analysis src/repro --baseline analysis_baseline.json

ruff:
	ruff check .

test:
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Paper-claim suite (the CI paper job): every benchmarks/test_bench_*.py
# that writes no BENCH_N.json — the figures, Table 1 and ablations
# A1-A16 that docs/PAPER_MAP.md cites — at BENCH_SEED
# (benchmarks/conftest.py).  The systems benches that do write
# BENCH_N.json have their own bench-* targets.
PAPER_BENCHES = $(shell grep -L 'BENCH_[0-9]*\.json' benchmarks/test_bench_*.py)

paper:
	$(PYTHON) -m pytest $(PAPER_BENCHES) -q

# Fault-matrix suite: the upload pipeline under scripted drops, outages,
# crashes, and skew (tests/faults), plus the containment analyzer rule.
chaos:
	$(PYTHON) -m repro.analysis src/repro --baseline analysis_baseline.json --select faults-only-in-harness
	$(PYTHON) -m pytest tests/faults -q

# Scale suite: the golden grid and property tests proving the server
# identical at every shard count, the kernel-versus-scalar-spec test
# (test_kernel_spec.py), then the line-coverage floor on repro.scale.
scale:
	$(PYTHON) -m pytest tests/scale -q
	$(PYTHON) scripts/coverage_gate.py --fail-under 85

# Sharded maintenance benchmark; emits BENCH_3.json at the repo root.
bench-shards:
	$(PYTHON) -m pytest benchmarks/test_bench_shards.py --benchmark-only -q -s

# Telemetry suite: the label-privacy analyzer rule, the registry tests,
# golden export pins, counter consistency under chaos, and the
# line-coverage floor on repro.telemetry.
telemetry:
	$(PYTHON) -m repro.analysis src/repro --baseline analysis_baseline.json --select priv-telemetry-label
	$(PYTHON) -m pytest tests/telemetry -q
	$(PYTHON) scripts/coverage_gate.py --target telemetry --fail-under 85

# Instrumentation overhead benchmark; emits BENCH_4.json at the repo root.
bench-telemetry:
	$(PYTHON) -m pytest benchmarks/test_bench_telemetry.py --benchmark-only -q -s

# Incremental-maintenance suite: the invalidation units
# (tests/service/test_incremental.py) and the rest of tests/service, the
# stateful intake-model suite whose from-scratch oracle checks every
# cycle that reuses cached verdicts, the dirty-iteration analyzer rule, and the
# line-coverage floor on repro.service (the server and its dirty-tracking
# engine).
incremental:
	$(PYTHON) -m repro.analysis src/repro --baseline analysis_baseline.json --select det-dirty-iteration
	$(PYTHON) -m pytest tests/service tests/spec -q
	$(PYTHON) scripts/coverage_gate.py --target service --fail-under 85

# Dirty-delta maintenance benchmark; emits BENCH_5.json at the repo root.
bench-incremental:
	$(PYTHON) -m pytest benchmarks/test_bench_incremental.py --benchmark-only -q -s

# Static-analysis suite: the analyzer over src/repro against the
# committed findings baseline (new findings, stale entries and dead
# waivers fail), the fixture-driven rule/checker/call-graph/dataflow
# tests, and the line-coverage floor on repro.analysis.
analyze:
	$(PYTHON) -m repro.analysis src/repro --baseline analysis_baseline.json
	$(PYTHON) -m pytest tests/analysis tests/lint -q
	$(PYTHON) scripts/coverage_gate.py --target analysis --fail-under 85

# Cold vs warm analyzer benchmark; emits BENCH_6.json at the repo root.
bench-analyze:
	$(PYTHON) -m pytest benchmarks/test_bench_analysis.py --benchmark-only -q -s

# Durability suite (the CI crash-matrix job): WAL format + torn-write
# properties, the crash-at-every-frame-boundary differential, recovery
# idempotency, replication/failover, the replica-outage chaos plans, the
# reshard crash matrix (snapshots carry the topology), the
# fsync-before-ack analyzer rule, and the line-coverage floor on
# repro.durability.
durable:
	$(PYTHON) -m repro.analysis src/repro --baseline analysis_baseline.json --select durability-fsync-before-ack
	$(PYTHON) -m pytest tests/durability tests/faults/test_replica_outages.py tests/reshard/test_reshard_recovery.py -q
	$(PYTHON) scripts/coverage_gate.py --target durability --fail-under 85

# Durable intake overhead + cold-replay benchmark; emits BENCH_7.json at
# the repo root.
bench-durable:
	$(PYTHON) -m pytest benchmarks/test_bench_durability.py --benchmark-only -q -s

# Intake-path suite (the CI ingest job): the intake reference model and
# its stateful test, per-record vs batched intake on the one intake loop,
# backpressure/shed invariants, the load generator, the batch-routing
# regression, and the line-coverage floor on repro.ingest.
ingest:
	$(PYTHON) -m pytest tests/spec tests/ingest tests/scale/test_batch_routing.py -q
	$(PYTHON) scripts/coverage_gate.py --target ingest --fail-under 85

# Intake throughput (per-record vs batched, one intake loop) and the
# overload shedding check; emits BENCH_8.json at the repo root.
bench-ingest:
	$(PYTHON) -m pytest benchmarks/test_bench_ingest.py --benchmark-only -q -s

# Read-path suite (the CI serve job): index coverage-exactness, ranking
# total-order/monotonicity pins, cache-coherence property schedules, the
# serving differential matrix, the deterministic-read-path analyzer rule, and
# the line-coverage floor on repro.serve.
serve:
	$(PYTHON) -m repro.analysis src/repro --baseline analysis_baseline.json --select det-read-path
	$(PYTHON) -m pytest tests/serve -q
	$(PYTHON) scripts/coverage_gate.py --target serve --fail-under 85

# Cached vs uncached read QPS benchmark; emits BENCH_9.json at the repo
# root (gates: hit rate >= 90%, cached >= 5x uncached at <= 10% dirty).
bench-serve:
	$(PYTHON) -m pytest benchmarks/test_bench_serve.py --benchmark-only -q -s

# Resharding suite (the CI reshard job): routing-table property tests,
# migration invariants, the crash-at-every-migration-step recovery
# matrix, the router regression pins, the dirty-iteration analyzer rule
# over repro.reshard, and the line-coverage floor on repro.reshard.  The
# scheduled and autoscaled epoch runs are cells of the golden grid in
# tests/scale/test_golden_digest.py.
reshard:
	$(PYTHON) -m repro.analysis src/repro --baseline analysis_baseline.json --select det-dirty-iteration
	$(PYTHON) -m pytest tests/reshard tests/scale/test_router_properties.py -q
	$(PYTHON) scripts/coverage_gate.py --target reshard --fail-under 85

# Live-split locality + post-split throughput benchmark; emits
# BENCH_10.json at the repo root (gates: each split moves <= 1/n_shards
# of the catalog; grown deployment within 10% of native throughput).
bench-reshard:
	$(PYTHON) -m pytest benchmarks/test_bench_reshard.py --benchmark-only -q -s

# Sensing suite (the CI sensing job): the columnar trace windows against
# the plain whole-horizon oracle, the one stay-point fold over columns
# and sample objects, the column-level linearity of run_epochs sensing,
# and the line-coverage floor on repro.sensing.
sensing:
	$(PYTHON) -m pytest tests/sensing tests/orchestration/test_linear_sensing.py -q
	$(PYTHON) scripts/coverage_gate.py --target sensing --fail-under 95

# End-to-end benchmark smoke (the CI bench-e2e job): every workload at
# tiny size through `python -m bench run`, then the benchmark's own tests.
# The full run is `python -m bench run` (see bench/README.md).
bench-e2e:
	$(PYTHON) -m bench run --smoke
	$(PYTHON) -m pytest bench/tests -q

# Unprofiled wall time and cProfile tables (cumulative and self time) of
# one run_epochs deployment; pass sizes through PROFILE_ARGS, e.g.
# `make profile-epochs PROFILE_ARGS="--epochs 16 --top 40"`.
profile-epochs:
	$(PYTHON) scripts/profile_epochs.py $(PROFILE_ARGS)

# Unprofiled run_s and cProfile tables (cumulative and self time) of one
# untraced full-size pass of a benchmark workload, e.g.
# `make profile-workload WORKLOAD=reads-cold PROFILE_ARGS="--top 40"`.
WORKLOAD ?= reads-cold
profile-workload:
	$(PYTHON) scripts/profile_workload.py --workload $(WORKLOAD) $(PROFILE_ARGS)
