"""The RSP's service: the server half of Figure 2.

Holds the four stores (explicit reviews, anonymous interaction histories,
anonymous inferred opinions, spent tokens), runs the maintenance cycle
(fraud profiles → history filtering → opinion summaries and Figure 3
panels), and answers queries through the serving layer
(:mod:`repro.serve`) with explicit reviews, inferred summaries, and
comparative visualizations side by side.

Token checking happens here, once per envelope, before dispatching the
record to its store — forged, replayed, or missing tokens bounce the whole
envelope.  Every intake entry point runs the one classification loop in
:mod:`repro.ingest.columnar`.

The record-keyed stores are split across ``n_shards`` partitions (one
by default), each keyed by one of its values:

* interaction histories and inferred opinions route by their unlinkable
  ``hash(Ru, e)`` record identifier (so a record, its re-uploads, and its
  opinion all live together);
* explicit reviews route by entity identifier.

The seen-nonce set, the spent-token set and the maintenance engine's
dirty set are not keyed by a record or entity id, so there is one of
each, server-wide: duplicate suppression and double-spend rejection are
exact by construction, whatever the shard count.

Every report, summary, serve response and aggregate telemetry value is
the same for every shard count; ``tests/scale`` and
``tests/spec`` hold the proof obligations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING

from repro.core.aggregation import EntityOpinionSummary
from repro.core.protocol import Envelope
from repro.fraud.attestation import AttestationQuote, AttestationVerifier
from repro.fraud.detector import DetectorConfig, HistoryVerdict
from repro.ingest.columnar import ingest_all, ingest_one
from repro.privacy.anonymity import Delivery
from repro.privacy.tokens import TokenIssuer, TokenRedeemer
from repro.scale.router import ShardRouter
from repro.scale.shard import ShardState
from repro.service.incremental import CycleStats, MaintenanceEngine, Slot
from repro.telemetry import DEPLOYMENT, NULL, Telemetry
from repro.telemetry.catalog import DIRTY_SET_BUCKETS
from repro.world.entities import Entity

if TYPE_CHECKING:
    from repro.serve.engine import ServeQuery, ServeResponse
    from repro.serve.facade import ServingLayer


@dataclass(frozen=True)
class ExplicitReview:
    """A review posted under a user account, like on today's services."""

    # The legacy path is attributed *by design*: users post these under
    # their account exactly as on today's services (Section 2 baseline).
    user_id: str  # repro: allow[priv-server-identity]
    entity_id: str
    rating: int
    time: float

    def __post_init__(self) -> None:
        if not 1 <= self.rating <= 5:
            raise ValueError("rating must lie in 1..5")
        # No NaN or infinity may reach a store or a WAL frame; the range
        # check above already refuses a NaN rating.
        if not isfinite(self.time):
            raise ValueError("review time must be finite")


@dataclass
class MaintenanceReport:
    """Outcome of one maintenance cycle."""

    n_histories: int = 0
    n_rejected_histories: int = 0
    n_opinions_received: int = 0
    n_opinions_kept: int = 0
    rejected: list[HistoryVerdict] = field(default_factory=list)


def emit_maintenance_telemetry(
    telemetry: Telemetry,
    report: MaintenanceReport,
    stats: CycleStats,
    now: float | None,
) -> None:
    """Record one maintenance cycle.

    Every aggregate value here derives from the report and the *tracked*
    cycle stats, which are identical across shard counts — so the
    AGGREGATE export stays byte-identical at every shard count.
    """
    telemetry.inc("rsp.maintenance.cycles")
    telemetry.set_gauge("rsp.maintenance.histories", report.n_histories)
    telemetry.set_gauge(
        "rsp.maintenance.rejected_histories", report.n_rejected_histories
    )
    telemetry.set_gauge("rsp.maintenance.opinions_kept", report.n_opinions_kept)
    telemetry.set_gauge("rsp.maintenance.dirty_entities", stats.n_dirty)
    telemetry.set_gauge("rsp.maintenance.cached_entities", stats.n_judge_cached)
    telemetry.inc("rsp.maintenance.cache_hits", stats.n_judge_cached, phase="judge")
    telemetry.inc("rsp.maintenance.cache_skips", stats.n_judge_tracked, phase="judge")
    telemetry.inc(
        "rsp.maintenance.cache_hits", stats.n_summarize_cached, phase="summarize"
    )
    telemetry.inc(
        "rsp.maintenance.cache_skips", stats.n_summarize_tracked, phase="summarize"
    )
    telemetry.inc("rsp.maintenance.redirtied", stats.n_redirtied)
    telemetry.observe(
        "rsp.maintenance.dirty_set", stats.n_judge_tracked, buckets=DIRTY_SET_BUCKETS
    )
    if now is not None:
        telemetry.span("maintenance", now, now)


class ShardedStoreView:
    """:class:`~repro.service.incremental.StoreView` over the shards.

    Slots are concatenated in shard-index order — the engine sorts every
    per-entity list by history id before judging or summarizing, so the
    concatenation order is unobservable.
    """

    def __init__(self, server: "RSPServer") -> None:
        self._server = server

    def history_slots(self, entity_id: str) -> list[Slot]:
        """An entity's histories, each with its opinion slot.

        A history and its opinion share the record key, so the slot is
        read on the shard that holds the history.
        """
        slots: list[Slot] = []
        for shard in self._server.shards:
            slot_of = shard.opinions.get
            slots += [
                (history, slot_of(history.history_id))
                for history in shard.store.histories_for_entity(entity_id)
            ]
        return slots

    def explicit_ratings(self, entity_id: str) -> list[float]:
        shard = self._server.shards[self._server.router.shard_of(entity_id)]
        return [float(review.rating) for review in shard.reviews.get(entity_id, [])]

    def entities_with_histories(self) -> set[str]:
        entities: set[str] = set()
        for shard in self._server.shards:
            entities.update(shard.store.entity_ids())
        return entities


class RSPServer:
    """The re-architected recommendation service."""

    def __init__(
        self,
        catalog: list[Entity],
        quota_per_day: int = 48,
        key_seed: int = 0,
        key_bits: int = 512,
        require_tokens: bool = True,
        detector_config: DetectorConfig | None = None,
        attestation: AttestationVerifier | None = None,
        n_shards: int = 1,
    ) -> None:
        if not catalog:
            raise ValueError("catalog must be non-empty")
        self.catalog = {entity.entity_id: entity for entity in catalog}
        self.entity_kinds = {e.entity_id: e.kind.label for e in catalog}
        self.issuer = TokenIssuer(
            quota_per_day=quota_per_day, key_seed=key_seed, key_bits=key_bits
        )
        self.require_tokens = require_tokens
        self.attestation = attestation
        self.rejected_attestations = 0
        self.router = ShardRouter(n_shards)
        #: The applied reshard operations, in order.  Snapshots carry
        #: it, and recovery re-runs it to rebuild the topology.
        self.reshard_history: list[dict] = []
        self.shards = [ShardState(index) for index in range(n_shards)]
        self._redeemer = TokenRedeemer(self.issuer.public_key)
        #: Nonces of accepted envelopes — the idempotent-dedup table that
        #: makes client retransmission over the ack-free channel safe.
        #: Keyed on the envelope's random nonce, never on a payload or
        #: identity digest (see docs/RELIABILITY.md for why).
        self._seen_nonces: set[bytes] = set()
        self._engine = MaintenanceEngine(
            ShardedStoreView(self), self.entity_kinds, detector_config
        )
        # Alias into the engine's cache (mutated in place only), so
        # summary reads always see the latest cycle.
        self._summaries: dict[str, EntityOpinionSummary] = self._engine.summaries
        self.rejected_envelopes = 0
        self.duplicates_suppressed = 0
        self.accepted_envelopes = 0
        #: Envelopes that arrived while the endpoint was down (harness
        #: hook); the fire-and-forget sender never learns about these.
        self.dropped_by_outage = 0
        #: Stale opinion re-uploads dropped by ``seq`` ordering (the
        #: envelope still counts as accepted; only the slot write is
        #: skipped — see docs/RELIABILITY.md).
        self.opinions_stale = 0
        #: Interaction uploads bounced because their history identifier
        #: is bound to a different entity (client bug or corruption
        #: attempt; split from generic storage failures).
        self.history_mismatches = 0
        #: Optional harness hook with ``server_down(now) -> bool``.
        self.fault_hook = None
        #: Optional durability hook (duck-typed like ``fault_hook``): a
        #: :class:`repro.durability.journal.DurableJournal` installed by
        #: the deployment driver, built with ``lane_of=self.router.shard_of``
        #: so each shard's mutations land in their own WAL file.  Accepted
        #: mutations are journaled *before* the acceptance commit; a
        #: journal failure propagates — the process must die rather than
        #: acknowledge unlogged state.
        self.journal = None
        #: Aggregate metrics are grouping-order independent (integer
        #: arithmetic); per-shard detail is emitted under DEPLOYMENT scope
        #: and excluded from the invariant digest.
        self.telemetry: Telemetry = NULL
        #: Lazily constructed read path (see :attr:`serving`).
        self._serving = None

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Install a shared telemetry sink on the server and its issuer."""
        self.telemetry = telemetry
        self.issuer.telemetry = telemetry

    # --------------------------------------------------------------- serving

    def attach_serving(self, **kwargs) -> "ServingLayer":
        """Build the indexed serving layer (see :mod:`repro.serve`).

        Keyword arguments are forwarded to
        :class:`~repro.serve.facade.ServingLayer` (``grid``, ``ranking``,
        ``max_cache_entries``).  Idempotent only in the trivial sense:
        attaching again replaces the layer and cold-starts its cache; the
        replaced layer stops receiving maintenance notifications.
        """
        from repro.serve.facade import ServingLayer

        replaced, self._serving = self._serving, ServingLayer(self, **kwargs)
        if replaced is not None:
            self._engine.unsubscribe(replaced._on_summaries_changed)
        return self._serving

    @property
    def serving(self) -> "ServingLayer":
        """The read path, constructed on first use.

        Lazy on purpose: a deployment that never queries never subscribes
        to maintenance notifications and never emits ``rsp.serve.*``
        metrics, keeping query-free telemetry exports bit-stable.
        """
        if self._serving is None:
            self.attach_serving()
        return self._serving

    def query(self, query: "ServeQuery") -> "ServeResponse":
        """Answer a query through the cached serving layer — the one read
        path: ranked results plus the top entities' Figure 3 panels, as
        the last maintenance cycle published them."""
        serving = self._serving
        if serving is None:
            serving = self.attach_serving()
        return serving.query(query)

    # ------------------------------------------------------------- intake

    def issue_tokens(
        self,
        # Issuance-side identity only: the signature is blind, so the token
        # redeemed later cannot be linked back to this device_id (Section 4.2).
        device_id: str,  # repro: allow[priv-server-identity]
        blinded_values: list[int],
        now: float,
        quote: AttestationQuote | None = None,
    ) -> list[int]:
        """Blind-sign upload tokens for an attested device.

        When the server was built with an attestation verifier (Section
        4.3's remote-attestation defense), a valid fresh quote from a
        genuine client build is required — modified clients are cut off
        from uploading *anything* because they can never obtain tokens.
        Issuance is a single-endpoint concern (quota windows are per
        device), so it is not sharded.
        """
        if self.attestation is not None:
            if quote is None or not self.attestation.verify(quote):
                self.rejected_attestations += 1
                raise PermissionError(
                    f"device {device_id} failed attestation; no tokens issued"
                )
        return self.issuer.issue(device_id, blinded_values, now=now)

    def post_review(
        self,
        # Explicit reviews are the attributed legacy path (Section 2
        # baseline); they never mix with the anonymous hash(Ru, e) stores.
        user_id: str,  # repro: allow[priv-server-identity]
        entity_id: str,
        rating: int,
        time: float,
    ) -> None:
        """Accept an explicit, attributed review (the legacy path)."""
        if entity_id not in self.catalog:
            raise KeyError(f"unknown entity {entity_id!r}")
        shard = self.shards[self.router.shard_of(entity_id)]
        # Constructing first validates the rating, so an invalid review
        # can never reach the WAL; journaling precedes the store append.
        review = ExplicitReview(
            user_id=user_id, entity_id=entity_id, rating=rating, time=time
        )
        if self.journal is not None:
            self.journal.log_review(user_id, entity_id, rating, time)
        shard.write("review", review)
        self._engine.mark_dirty(entity_id)
        self.telemetry.inc("rsp.reviews.posted")

    def commit_acceptance(self, nonce: bytes | None, token_id: bytes | None) -> None:
        """Count an accepted envelope, burn its nonce, spend its token."""
        self.accepted_envelopes += 1
        if nonce is not None:
            self._seen_nonces.add(nonce)
        if token_id is not None:
            self._redeemer._spent.add(token_id)

    def receive(self, delivery: Delivery[Envelope], now: float | None = None) -> bool:
        """Process one anonymous envelope off the network.

        The classification order and its reasons are documented on
        :func:`repro.ingest.columnar.ingest_all`.  Unlike a batch, one
        envelope records no batch-size telemetry and does not group-commit
        the journal.  ``now`` overrides the time the outage check sees (a
        catch-up job processing a backlog held through an outage).
        """
        return ingest_one(self, delivery, now=now)

    def receive_all(
        self, deliveries: list[Delivery[Envelope]], now: float | None = None
    ) -> int:
        """Process a batch of envelopes; returns how many were accepted."""
        return ingest_all(self, deliveries, now=now)

    # -------------------------------------------------------- maintenance

    def run_maintenance(self, now: float | None = None) -> MaintenanceReport:
        """Rebuild fraud profiles, filter histories, recompute summaries.

        ``now`` is the simulated time of the cycle; when given, the cycle
        is recorded as a ``maintenance`` span on the telemetry timeline.

        Aggregation inputs are put into *canonical order* (histories and
        opinions sorted by ``history_id``, entities visited in sorted
        order, verdicts sorted by ``history_id``) before any float math
        runs.  Floating-point reductions are order-dependent, so this is
        what makes the cycle's output a pure function of store *content*
        rather than arrival interleaving or partitioning (see
        docs/SCALING.md).

        The incremental engine runs the cycle over the entities intake
        marked dirty since the last one: it rebuilds the fraud profiles
        for the kinds with a dirty entity, then judges and re-summarizes
        the tracked entities from one columnar frame of their histories,
        gathered across the shards.  The same cycle runs at every dirty
        fraction and shard count.
        """
        report = MaintenanceReport(
            n_histories=self.n_histories,
            n_opinions_received=self.n_opinions,
        )
        stats = self._engine.execute(self._engine.plan())
        report.rejected = self._engine.rejected_verdicts()
        report.n_rejected_histories = len(report.rejected)
        report.n_opinions_kept = self._engine.n_opinions_kept
        emit_maintenance_telemetry(self.telemetry, report, stats, now)
        for shard in self.shards:
            self.telemetry.set_gauge(
                "rsp.shard.histories",
                shard.store.n_histories,
                scope=DEPLOYMENT,
                shard=shard.index,
            )
        if now is not None:
            for shard in self.shards:
                self.telemetry.span(
                    "shard.maintenance", now, now, scope=DEPLOYMENT, shard=shard.index
                )
        return report

    # -------------------------------------------------------- resharding
    #
    # Live topology changes.  These two methods are pure state migration:
    # no journaling, no telemetry — :func:`repro.reshard.ops.perform`
    # wraps them with the WAL record (journal-before-migrate) and the
    # ``rsp.reshard.*`` DEPLOYMENT metrics, and recovery calls them
    # directly when replaying a reshard record.  Both run between intake
    # batches (single-threaded deployment loop), so the router swap at
    # the end is atomic as far as any caller can observe.

    def split_shard(self, index: int) -> dict[str, int]:
        """Split shard ``index``: extend its prefix, move only its keys.

        The new shard takes the next free slot (``n_shards``) and adopts
        exactly the state whose keys route to it under the post-split
        table: whole histories (records and folded stats ride along),
        opinion slots (their ``seq`` ordering moves with them), and
        explicit reviews.  The server-wide nonce, token and dirty sets do
        not move.  Returns per-kind moved counts.
        """
        new_index = self.router.n_shards
        router = self.router.split(index)
        source = self.shards[index]
        dest = ShardState(new_index)
        moved = {"histories": 0, "opinions": 0, "reviews": 0}
        for history in source.store.all_histories():
            if router.shard_of(history.history_id) == new_index:
                dest.store.adopt(source.store.release(history.history_id))
                moved["histories"] += 1
        for history_id in sorted(source.opinions):
            if router.shard_of(history_id) == new_index:
                dest.opinions[history_id] = source.opinions.pop(history_id)
                moved["opinions"] += 1
        for entity_id in sorted(source.reviews):
            if router.shard_of(entity_id) == new_index:
                dest.reviews[entity_id] = source.reviews.pop(entity_id)
                moved["reviews"] += len(dest.reviews[entity_id])
        self.shards.append(dest)
        self._finish_reshard(router)
        return moved

    def merge_shards(self, a: int, b: int) -> dict[str, int]:
        """Merge shard ``b`` into shard ``a``; shards above ``b`` renumber.

        Routing keeps the two key spaces disjoint, so no record needs
        merging: ``b``'s histories adopt into fresh slots on ``a``, and its
        opinion slots and review lists transplant whole (review order
        within an entity is preserved — ``b`` owned the only list).
        Returns per-kind moved counts.
        """
        router = self.router.merge(a, b)
        source, dest = self.shards[b], self.shards[a]
        moved = {
            "histories": source.store.n_histories,
            "opinions": len(source.opinions),
            "reviews": sum(len(reviews) for reviews in source.reviews.values()),
        }
        for history in source.store.all_histories():
            dest.store.adopt(history)
        dest.opinions.update(source.opinions)
        for entity_id in sorted(source.reviews):
            dest.reviews.setdefault(entity_id, []).extend(source.reviews[entity_id])
        del self.shards[b]
        for shard in self.shards[b:]:
            shard.index -= 1
        self._finish_reshard(router)
        return moved

    def _finish_reshard(self, router: ShardRouter) -> None:
        """Swap the routing table in."""
        self.router = router
        if self.journal is not None:
            self.journal.remap_lanes(router.n_shards, router.shard_of)

    # -------------------------------------------------------------- query

    def summary(self, entity_id: str) -> EntityOpinionSummary | None:
        return self._summaries.get(entity_id)

    def all_summaries(self) -> dict[str, EntityOpinionSummary]:
        """Every entity summary from the latest maintenance cycle.

        Canonical (entity-id) order: the engine's cache is insertion-
        ordered by recompute history.  Sorting keeps every reader
        order-independent.
        """
        return {
            entity_id: self._summaries[entity_id]
            for entity_id in sorted(self._summaries)
        }

    def reviews_for(self, entity_id: str) -> list[ExplicitReview]:
        shard = self.shards[self.router.shard_of(entity_id)]
        return list(shard.reviews.get(entity_id, []))

    # ----------------------------------------------------------- counters

    @property
    def n_records(self) -> int:
        """Total interactions stored."""
        return sum(shard.store.n_records for shard in self.shards)

    @property
    def n_histories(self) -> int:
        return sum(shard.store.n_histories for shard in self.shards)

    @property
    def n_opinions(self) -> int:
        return sum(len(shard.opinions) for shard in self.shards)

    @property
    def n_explicit_reviews(self) -> int:
        return sum(
            len(reviews)
            for shard in self.shards
            for reviews in shard.reviews.values()
        )

    @property
    def n_unique_nonces(self) -> int:
        """Distinct envelope nonces accepted — duplicates never inflate this."""
        return len(self._seen_nonces)
