"""The real server, driven through random operation sequences, against the model.

A sequence is a list of ``(operation, seed)`` pairs drawn from
:func:`repro.util.rng.make_rng`.  Each operation derives its content from
its own seed and the harness state at the time it runs, so any
subsequence is itself a valid sequence — which is what lets a failure be
shrunk by dropping operations.

Operations:

* ``intake`` — one batch through ``receive``, ``receive_all`` or
  ``ingest_all``, mixing clean uploads with the impurities the model
  classifies: replayed envelopes and nonces, missing, forged and spent
  tokens, unknown entities, history mismatches, stale and tying opinion
  ``seq``, malformed records, non-string history ids, poisoned keys, and
  an outage window;
* ``maintenance`` — a cycle whose report and summaries must equal those
  of a fresh ``incremental=False`` server restored from ``capture_state``,
  followed by queries whose cached answers must equal ``query_uncached``;
* ``crash`` — cut a copy of the WAL at a random frame boundary, recover a
  fresh server from it, re-deliver everything since the last snapshot,
  and compare the durable state with the live server's;
* ``snapshot`` — take a snapshot, which bounds what a crash re-delivers;
* ``reshard`` — a live split or merge.

After every operation the server's counters, per-reason rejections and
``capture_state`` must equal the model's.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.durability.journal import DurableJournal, attach_journal, list_segments
from repro.durability.recovery import finalize_recovery, recover_server
from repro.durability.snapshot import capture_state, restore_state
from repro.durability.wal import read_wal
from repro.ingest import ingest_all, synthetic_catalog
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.privacy.tokens import TokenWallet, UploadToken
from repro.reshard import ReshardOp, perform
from repro.serve.loadgen import QueryWorkload, SyntheticQueries
from repro.service.server import RSPServer
from repro.telemetry import Telemetry
from repro.util.rng import make_rng

from tests.spec.intake_model import COUNTERS, IntakeModel

N_ENTITIES = 24
N_USERS = 8
N_TOKENS = 400
KEY_SEED = 5
TICK = 600.0
#: The endpoint is down for arrivals (or catch-up times) in these windows.
OUTAGES = ((6 * TICK, 8 * TICK), (15 * TICK, 15.5 * TICK))
SEQUENCE_LENGTH = 24
REASONS = ("token", "malformed", "unknown-entity", "store-error", "history-mismatch")

OPERATIONS = {"intake": 10, "maintenance": 2, "crash": 2, "snapshot": 1, "reshard": 2}

#: Envelope shapes an intake batch draws from, with their weights.
SHAPES = {
    "interaction": 30,
    "opinion": 20,
    "replay": 8,
    "reused-nonce": 5,
    "no-token": 4,
    "forged-token": 4,
    "spent-token": 4,
    "unknown-entity": 5,
    "mismatch": 6,
    "malformed": 4,
    "int-history-id": 3,
    "poisoned": 5,
}


class Outage:
    """A pure fault hook: down inside the :data:`OUTAGES` windows."""

    def server_down(self, now: float) -> bool:
        return any(start <= now < end for start, end in OUTAGES)


class PoisonedKey(str):
    """A record key whose hash raises, as a key the store cannot index."""

    def __hash__(self):
        raise RuntimeError("poisoned key")


def _draw(rng, weights: dict[str, int]) -> str:
    names = list(weights)
    total = sum(weights.values())
    return names[int(rng.choice(len(names), p=[weights[n] / total for n in names]))]


def generate(seed: int, length: int = SEQUENCE_LENGTH) -> list[tuple[str, int]]:
    rng = make_rng(seed, "spec/sequence")
    return [(_draw(rng, OPERATIONS), int(rng.integers(2**31))) for _ in range(length)]


def durable_state(server) -> dict:
    """What recovery plus re-delivery must reproduce: the store content and
    the counters that accepted mutations carry.

    Refusals are not journaled.  A re-delivered envelope that was refused
    before may meet a nonce the recovered log accepted after it, so it is
    counted as a duplicate the second time; the refusal counters are left
    out.
    """
    state = capture_state(server)
    del state["wal_seq"]
    for name in ("rejected_envelopes", "duplicates_suppressed", "history_mismatches"):
        state["counters"].pop(name)
    return state


class Harness:
    """One server, its model, and the bookkeeping the operations share."""

    def __init__(self, n_shards: int, require_tokens: bool, workdir: Path):
        self.n_shards = n_shards
        self.require_tokens = require_tokens
        self.workdir = workdir
        self.catalog = synthetic_catalog(N_ENTITIES, seed=3)
        self.entity_ids = [entity.entity_id for entity in self.catalog]
        self.server = self.new_server()
        self.telemetry = Telemetry()
        self.server.attach_telemetry(self.telemetry)
        self.model = IntakeModel(frozenset(self.entity_ids), require_tokens=require_tokens)
        self.tokens: list[UploadToken] = []
        if require_tokens:
            wallet = TokenWallet(device_id="spec-device", seed=KEY_SEED)
            issuer = self.server.issuer
            blinded = wallet.mint(issuer.public_key, N_TOKENS)
            wallet.accept_signatures(
                issuer.public_key, issuer.issue("spec-device", blinded, now=0.0)
            )
            self.tokens = [wallet.spend() for _ in range(N_TOKENS)]
            self.model.minted = {token.token_id: token.signature for token in self.tokens}
        for index, entity_id in enumerate(self.entity_ids[:3]):
            self.server.post_review(f"reviewer-{index}", entity_id, 2 + index, 10.0 * index)
            self.model.post_review(f"reviewer-{index}", entity_id, 2 + index, 10.0 * index)
        self.server.fault_hook = Outage()
        self.journal = DurableJournal(
            workdir / "primary",
            n_lanes=n_shards,
            lane_of=self.server.router.shard_of,
        )
        attach_journal(self.server, self.journal)
        self.journal.take_snapshot(self.server)
        #: Batches (with their ``now``) delivered since the last snapshot.
        self.since_snapshot: list[tuple[list[Delivery], float | None]] = []
        #: Everything delivered in earlier batches, for replays.
        self.delivered: list[Delivery] = []
        self.spent_tokens: list[UploadToken] = []
        #: Highest opinion ``seq`` drawn per history, and the slot's entity.
        self.seqs: dict[str, int] = {}
        self.slot_entities: dict[str, str] = {}
        self.clock = 0.0
        self.crashes = 0
        self.queries = SyntheticQueries(self.catalog, QueryWorkload(n_distinct=16, seed=3))

    def new_server(self, incremental: bool = True, n_shards: int | None = None):
        return RSPServer(
            catalog=self.catalog,
            quota_per_day=N_TOKENS,
            key_seed=KEY_SEED,
            key_bits=256,
            require_tokens=self.require_tokens,
            n_shards=n_shards or self.n_shards,
            incremental=incremental,
        )

    # ------------------------------------------------------------ checking

    def check(self) -> None:
        state = capture_state(self.server)
        for key, expected in self.model.state().items():
            assert state[key] == expected, f"capture_state[{key!r}] differs from the model"
        for name in COUNTERS:
            assert getattr(self.server, name) == self.model.counters[name], name
        for reason in REASONS:
            counted = self.telemetry.value("rsp.envelopes.rejected", reason=reason) or 0
            assert counted == self.model.rejected.get(reason, 0), f"rejected[{reason}]"

    # ------------------------------------------------------------- intake

    def intake(self, rng) -> None:
        self.clock += TICK
        batch = [self._delivery(rng, self.clock + index) for index in range(int(rng.integers(1, 40)))]
        now = None if rng.random() < 0.8 else self.clock + TICK / 2
        method = ("receive", "receive_all", "ingest_all")[int(rng.integers(3))]
        if method == "receive":
            results = [self.server.receive(delivery, now=now) for delivery in batch]
        elif method == "receive_all":
            results = self.server.receive_all(batch, now=now)
        else:
            results = ingest_all(self.server, batch, now=now)
        fates = []
        hook = self.server.fault_hook
        for delivery in batch:
            down = hook.server_down(delivery.arrival_time if now is None else now)
            fates.append(self.model.deliver(delivery.payload, delivery.arrival_time, down))
        accepted = [fate in ("accepted", "stale") for fate in fates]
        if method == "receive":
            assert results == accepted, f"per-envelope results {results} != model {fates}"
        else:
            assert results == sum(accepted), f"{method} accepted {results} != model {fates}"
        self.since_snapshot.append((batch, now))
        self.delivered.extend(batch)
        self.spent_tokens.extend(
            delivery.payload.token for delivery in batch if delivery.payload.token is not None
        )

    def _delivery(self, rng, arrival: float) -> Delivery:
        shape = _draw(rng, SHAPES)
        if shape == "replay" and self.delivered:
            earlier = self.delivered[int(rng.integers(len(self.delivered)))]
            return Delivery(payload=earlier.payload, arrival_time=arrival, channel_tag="spec")
        nonce = bytes(rng.bytes(16))
        if shape == "reused-nonce" and self.delivered:
            nonce = self.delivered[int(rng.integers(len(self.delivered)))].payload.nonce
        token = self.tokens.pop() if self.tokens else None
        if shape == "no-token":
            token = None
        elif shape == "forged-token":
            token = UploadToken(token_id=bytes(rng.bytes(40)), signature=int(rng.integers(2**62)))
        elif shape == "spent-token" and self.spent_tokens:
            token = self.spent_tokens[int(rng.integers(len(self.spent_tokens)))]
        record = self._record(rng, shape, arrival)
        return Delivery(
            payload=Envelope(record=record, token=token, nonce=nonce),
            arrival_time=arrival,
            channel_tag="spec",
        )

    def _record(self, rng, shape: str, arrival: float):
        if shape == "malformed":
            return "not a record"
        user = int(rng.integers(N_USERS))
        entity_id = self.entity_ids[int(rng.integers(len(self.entity_ids)))]
        if shape == "unknown-entity":
            entity_id = f"ghost-{int(rng.integers(3))}"
        history_id = hashlib.sha256(f"user-{user}|{entity_id}".encode()).hexdigest()
        if shape == "mismatch" and self.model.histories:
            bound = sorted(self.model.histories)
            history_id = bound[int(rng.integers(len(bound)))]
        elif shape == "int-history-id":
            history_id = int(rng.integers(2**31))
        elif shape == "poisoned":
            history_id = PoisonedKey(history_id)
        if shape == "opinion" and self.seqs and rng.random() < 0.5:
            history_id = sorted(self.seqs)[int(rng.integers(len(self.seqs)))]
            entity_id = self.slot_entities[history_id]
        either_kind = shape in ("unknown-entity", "int-history-id", "poisoned")
        if shape == "opinion" or (either_kind and rng.random() < 0.5):
            return self._opinion(rng, history_id, entity_id)
        return InteractionUpload(
            history_id=history_id,
            entity_id=entity_id,
            interaction_type=("visit", "call")[int(rng.integers(2))],
            event_time=arrival - float(rng.integers(60, 30 * 86400)),
            duration=float(rng.integers(60, 7200)),
            travel_km=float(rng.integers(0, 40)) / 2,
        )

    def _opinion(self, rng, history_id: str, entity_id: str) -> OpinionUpload:
        """A fresh, tying or stale ``seq`` for the history's slot."""
        tracked = type(history_id) is str
        current = self.seqs.get(history_id, 0) if tracked else 0
        seq = max(0, current + int(rng.choice([1, 1, 0, -1])))
        if tracked:
            self.seqs[history_id] = max(current, seq)
            self.slot_entities[history_id] = entity_id
        return OpinionUpload(
            history_id=history_id,
            entity_id=entity_id,
            rating=float(rng.integers(0, 11)) / 2,
            seq=seq,
        )

    # -------------------------------------------------------- maintenance

    def maintenance(self, rng) -> None:
        now = self.clock + TICK / 3
        report = self.server.run_maintenance(now=now)
        oracle = self.new_server(incremental=False, n_shards=int(rng.integers(1, 4)))
        restore_state(oracle, capture_state(self.server))
        finalize_recovery(oracle)
        assert repr(report) == repr(oracle.run_maintenance(now=now)), "maintenance report"
        assert self.server.all_summaries() == oracle.all_summaries(), "summaries"
        for query in self.queries.batch(12):
            cached = self.server.query(query).render()
            assert cached == self.server.serving.query_uncached(query).render(), "query"

    # ----------------------------------------------------------- durability

    def snapshot(self, rng) -> None:
        self.journal.take_snapshot(self.server)
        self.since_snapshot = []

    def crash(self, rng) -> None:
        """Recover a copy cut at a random WAL frame boundary, then re-deliver."""
        self.journal.sync_to_disk()
        self.crashes += 1
        copy = self.workdir / f"crash-{self.crashes}"
        shutil.copytree(self.journal.directory, copy)
        lanes = sorted(list_segments(copy).items())
        _lane, segments = lanes[int(rng.integers(len(lanes)))]
        _start, path = segments[-1]
        wal = read_wal(path)
        cuts = list(wal.offsets) + [wal.valid_bytes]
        with open(path, "r+b") as handle:
            handle.truncate(cuts[int(rng.integers(len(cuts)))])
        recovered = self.new_server()
        recovered.fault_hook = self.server.fault_hook
        recover_server(recovered, copy)
        for batch, now in self.since_snapshot:
            recovered.receive_all(batch, now=now)
        assert durable_state(recovered) == durable_state(self.server), "recovered state"
        shutil.rmtree(copy)

    # ---------------------------------------------------------- resharding

    def reshard(self, rng) -> None:
        n_shards = self.server.router.n_shards
        if n_shards > 1 and (n_shards >= 6 or rng.random() < 0.5):
            a, b = (int(index) for index in rng.choice(n_shards, size=2, replace=False))
            perform(self.server, ReshardOp.merge(a, b))
        else:
            perform(self.server, ReshardOp.split(int(rng.integers(n_shards))))


def run_sequence(ops, n_shards, require_tokens, root: Path) -> str | None:
    """Run one sequence; returns ``None`` or a description of the first divergence."""
    workdir = Path(tempfile.mkdtemp(dir=root))
    try:
        harness = Harness(n_shards, require_tokens, workdir)
        step, name = -1, "setup"
        try:
            harness.check()
            for step, (name, seed) in enumerate(ops):
                getattr(harness, name)(make_rng(seed, f"spec/{name}"))
                harness.check()
        except AssertionError as error:
            return f"step {step} ({name}): {error}"
        finally:
            harness.journal.close()
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def shrink(ops, fails) -> list:
    """Drop operations one at a time while the sequence still fails."""
    shrunk = True
    while shrunk:
        shrunk = False
        for index in range(len(ops)):
            candidate = ops[:index] + ops[index + 1 :]
            if fails(candidate):
                ops, shrunk = candidate, True
                break
    return ops


@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("seed,require_tokens", [(1, True), (2, True), (3, False)])
def test_server_matches_model(tmp_path, n_shards, seed, require_tokens):
    ops = generate(seed)
    failure = run_sequence(ops, n_shards, require_tokens, tmp_path)
    if failure is not None:
        minimal = shrink(
            ops,
            lambda candidate: run_sequence(candidate, n_shards, require_tokens, tmp_path)
            is not None,
        )
        reason = run_sequence(minimal, n_shards, require_tokens, tmp_path)
        pytest.fail(f"server diverged from the intake model\n{minimal}\n{reason}")


def test_shrink_drops_irrelevant_operations():
    ops = [("intake", 1), ("crash", 2), ("intake", 3), ("reshard", 4)]
    assert shrink(ops, lambda candidate: ("crash", 2) in candidate) == [("crash", 2)]
