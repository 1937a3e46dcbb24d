"""The golden grid: one pinned scenario, every deployment shape.

Each cell runs the full epochs pipeline — simulated town, on-device
clients, mixnet, token issuance, maintenance, serving — and every cell
must hit the *same* pins, clean and under chaos:

* the per-epoch report digest (``EpochsOutcome.reports_digest()``, which
  carries every fraud verdict);
* the summaries digest (every entity's opinion summary, bit for bit);
* the serve digest (every rendered read-path response of the run);
* the AGGREGATE telemetry digest (``rsp.serve.*`` cache behaviour
  included; ``rsp.reshard.*`` is DEPLOYMENT-scoped and must stay out).

The cells are one and eight shards, a scripted split/merge schedule and
the autoscaler, so shard count and live topology changes are pure
implementation detail.  Maintenance has one path at every dirty
fraction; its incremental cycles are checked against a from-scratch
server by ``tests/spec/test_stateful.py``, and its columnar kernel
against the scalar spec by ``tests/scale/test_kernel_spec.py``.

If a pin moves because of an *intentional* semantic change, re-derive
it with the helpers below and update every affected constant in one
commit, saying why in the commit message.
"""

import hashlib

import pytest

from repro.faults import DropFault, DuplicateFault, FaultPlan, Window
from repro.orchestration.epochs import run_epochs
from repro.orchestration.pipeline import PipelineConfig, train_classifier
from repro.privacy.uploads import RetransmitPolicy
from repro.reshard import AutoscalePolicy, parse_schedule
from repro.telemetry import AGGREGATE, DEPLOYMENT
from repro.util.clock import DAY, HOUR
from repro.world.behavior import BehaviorConfig, BehaviorSimulator
from repro.world.population import TownConfig, build_town

HORIZON_DAYS = 28.0
HORIZON = HORIZON_DAYS * DAY
N_EPOCHS = 3
SERVE_QUERIES = 10

GOLDEN_CLEAN = "efb4ba73cdc6df663515b14835aa4a47fa3a4d6dcbbc7f4e524103a469db0791"
GOLDEN_CHAOS = "deff64580df2c0021245f7a6aba4ffe25517a7738ef92d8e7240228b10a7d127"
GOLDEN_SUMMARIES_CLEAN = (
    "0512463b52d9666af427b4c8e02174d36cdef00ca0180ea6acecf41df0438444"
)
GOLDEN_SUMMARIES_CHAOS = (
    "3d1d31a2cbee021dbafa670923e8a7c3db626167c7b212d3c3dc87fcff58b616"
)
#: One serve pin for both scenarios: chaos changes the summaries of two
#: restaurants that none of the drawn queries reaches.
GOLDEN_SERVE = "23eb4df4aea47c322508d0de63c9a32635758de08e4c827676fbe7aceee6b668"
GOLDEN_AGGREGATE_CLEAN = (
    "4efba1cca9b443c5d82ea0e8fc4393d0d58cd02dd4b9af8a50bccb52d2c798c5"
)
GOLDEN_AGGREGATE_CHAOS = (
    "56b2fc0278f49836e78d199fc192a683f0720ab582a50dff65d4cf6704b59458"
)

CHAOS_PLAN = FaultPlan(
    seed=17,
    drops=(DropFault(Window(0.0, HORIZON + 30 * DAY), 0.05),),
    duplicates=(DuplicateFault(Window(0.0, HORIZON + 30 * DAY), 0.10),),
)
CHAOS_RETRY = RetransmitPolicy(max_attempts=2, min_interval=6 * HOUR)

#: cell -> (starting shard count, reshard schedule, autoscale policy).
CELLS = {
    "1": (1, None, None),
    "8": (8, None, None),
    "reshard": (2, ["1:split:0", "2:split:2", "3:merge:1:2"], None),
    "autoscale": (2, None, AutoscalePolicy(split_above=8, merge_below=0, max_shards=6)),
}


@pytest.fixture(scope="module")
def world():
    town = build_town(TownConfig(n_users=30), seed=29)
    result = BehaviorSimulator(
        town.users, town.entities, BehaviorConfig(duration_days=HORIZON_DAYS), seed=29
    ).run()
    classifier = train_classifier(town, result, HORIZON, seed=29)
    return town, result, classifier


def run_cell(world, cell, chaos, seed=29):
    town, result, classifier = world
    n_shards, schedule, autoscale = CELLS[cell]
    config = PipelineConfig(
        horizon_days=HORIZON_DAYS, seed=seed, retransmit=CHAOS_RETRY if chaos else None
    )
    return run_epochs(
        town,
        result,
        config,
        n_epochs=N_EPOCHS,
        classifier=classifier,
        max_users=8,
        fault_plan=CHAOS_PLAN if chaos else None,
        n_shards=n_shards,
        serve_queries=SERVE_QUERIES,
        reshard_schedule=parse_schedule(schedule) if schedule else None,
        autoscale=autoscale,
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(outcome) -> dict[str, str]:
    return {
        "reports": sha256(outcome.reports_digest()),
        "summaries": sha256(repr(outcome.server.all_summaries())),
        "serve": outcome.serve_digest,
        "aggregate": outcome.telemetry.digest(scope=AGGREGATE),
    }


PINS = {
    False: {
        "reports": GOLDEN_CLEAN,
        "summaries": GOLDEN_SUMMARIES_CLEAN,
        "serve": GOLDEN_SERVE,
        "aggregate": GOLDEN_AGGREGATE_CLEAN,
    },
    True: {
        "reports": GOLDEN_CHAOS,
        "summaries": GOLDEN_SUMMARIES_CHAOS,
        "serve": GOLDEN_SERVE,
        "aggregate": GOLDEN_AGGREGATE_CHAOS,
    },
}


@pytest.fixture(scope="module")
def outcomes(world):
    """Every grid run, computed once and shared by the pins and the guards."""
    cache = {}

    def get(cell, chaos):
        if (cell, chaos) not in cache:
            cache[cell, chaos] = run_cell(world, cell, chaos)
        return cache[cell, chaos]

    return get


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_clean_scenario_pins(outcomes, cell):
    assert digests(outcomes(cell, False)) == PINS[False]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_chaos_scenario_pins(outcomes, cell):
    outcome = outcomes(cell, True)
    assert digests(outcome) == PINS[True]
    assert outcome.server.accepted_envelopes == outcome.server.n_unique_nonces


# ------------------------------------------------------------ anti-vacuity


def test_pins_are_not_vacuous(world, outcomes):
    clean, chaos = outcomes("1", False), outcomes("1", True)
    assert clean.server.n_records > 0
    assert clean.telemetry.total("rsp.maintenance.cache_hits") > 0
    assert clean.telemetry.total("rsp.serve.queries") == N_EPOCHS * SERVE_QUERIES
    # The Zipf pool repeats across epochs, so the read cache must warm up.
    assert clean.telemetry.total("rsp.serve.cache_hits") > 0
    assert clean.telemetry.total("rsp.serve.invalidations") > 0
    # Another deployment seed moves every digest, the serve digest included,
    # so none of them is a constant.
    other = digests(run_cell(world, "1", False, seed=31))
    for name, pin in PINS[False].items():
        assert other[name] != pin, name


def test_chaos_actually_bites(outcomes):
    chaos = outcomes("1", True)
    assert chaos.injector.messages_dropped > 0
    assert chaos.server.duplicates_suppressed > 0
    for name in ("reports", "summaries", "aggregate"):
        assert PINS[True][name] != PINS[False][name], name


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
def test_topology_cells_actually_reshard(outcomes, chaos):
    _, schedule, _ = CELLS["reshard"]
    scheduled = outcomes("reshard", chaos)
    assert len(scheduled.reshard_ops) == len(schedule)
    autoscaled = outcomes("autoscale", chaos)
    assert autoscaled.reshard_ops
    assert autoscaled.server.router.n_shards > CELLS["autoscale"][0]


def test_reshard_telemetry_stays_out_of_the_aggregate_scope(outcomes):
    outcome = outcomes("reshard", False)
    deployment = outcome.telemetry.export_json(scope=DEPLOYMENT)
    assert "rsp.reshard.splits" in deployment
    assert "rsp.reshard.moved" in deployment
    assert "rsp.reshard" not in outcome.telemetry.export_json(scope=AGGREGATE)
