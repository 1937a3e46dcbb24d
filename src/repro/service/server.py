"""The RSP's service: the server half of Figure 2.

Holds the four stores (explicit reviews, anonymous interaction histories,
anonymous inferred opinions, spent tokens), runs the maintenance cycle
(fraud profiles → history filtering → opinion summaries), and answers
search queries with explicit reviews, inferred summaries, and comparative
visualizations side by side.

Token checking happens here, once per envelope, before dispatching the
record to its store — forged, replayed, or missing tokens bounce the whole
envelope.  Every intake entry point runs the one classification loop in
:mod:`repro.ingest.columnar`.

The stores are split across ``n_shards`` partitions (one by default), each
keyed by one of its values:

* interaction histories and inferred opinions route by their unlinkable
  ``hash(Ru, e)`` record identifier (so a record, its re-uploads, and its
  opinion all live together);
* explicit reviews and entity summaries route by entity identifier;
* the seen-nonce and spent-token tables are partitioned by their own key
  bytes, which keeps duplicate suppression and double-spend rejection
  *globally* exact: identical nonces (or token ids) always meet in the
  same bucket, whatever record they arrive with.

Every report, summary, serve response and aggregate telemetry value is
the same for every shard and worker count; ``tests/scale`` and
``tests/spec`` hold the proof obligations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.aggregation import EntityOpinionSummary
from repro.core.discovery import DiscoveryService, Query, SearchResponse
from repro.core.protocol import Envelope
from repro.core.visualization import ComparativeVisualization, compare_entities
from repro.fraud.attestation import AttestationQuote, AttestationVerifier
from repro.fraud.detector import DetectorConfig, HistoryVerdict
from repro.fraud.profiles import profiles_from_pools
from repro.ingest.columnar import ingest_all, ingest_one
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionHistory
from repro.privacy.tokens import TokenIssuer, UploadToken
from repro.scale import parallel
from repro.scale.kernel import GatherFrame, build_gather, collect_pools, kept_counts
from repro.scale.merge import group_verdicts_by_entity, merge_pools
from repro.scale.router import ShardRouter
from repro.scale.shard import ShardState
from repro.service.incremental import CycleStats, MaintenanceEngine
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
    mode: str,
) -> None:
    """Record one maintenance cycle.

    Every aggregate value here derives from the report and the *tracked*
    cycle stats, which are identical across incremental and full modes
    and across shard/worker counts — so the AGGREGATE export stays
    byte-identical whatever actually executed.  The mode-dependent span
    lives under DEPLOYMENT scope, outside the invariant digest.
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
        telemetry.span("maintenance.incremental", now, now, scope=DEPLOYMENT, mode=mode)


class ShardedTokenRedeemer:
    """Double-spend protection with the spent set partitioned by token id.

    Buckets are chosen by the token's own identifier bytes, so the two
    copies of a replayed token always contend in the same bucket — the
    partition is invisible to the double-spend semantics.
    """

    def __init__(self, public_key, router: ShardRouter) -> None:
        self._public_key = public_key
        self._router = router
        self._spent: list[set[int]] = [set() for _ in range(router.n_shards)]

    def redeem(self, token: UploadToken) -> bool:
        bucket = self._spent[self._router.shard_of_bytes(token.token_id)]
        if token.token_id in bucket:
            return False
        if not self._public_key.verify(token.token_id, token.signature):
            return False
        bucket.add(token.token_id)
        return True

    @property
    def n_redeemed(self) -> int:
        return sum(len(bucket) for bucket in self._spent)


class ShardedStoreView:
    """:class:`~repro.service.incremental.StoreView` over the shards.

    Histories are concatenated in shard-index order — the engine sorts
    every per-entity list by history id before judging or summarizing,
    so the concatenation order is unobservable.
    """

    def __init__(self, server: "RSPServer") -> None:
        self._server = server

    def histories_for_entity(self, entity_id: str) -> list[InteractionHistory]:
        histories: list[InteractionHistory] = []
        for shard in self._server.shards:
            histories.extend(shard.store.histories_for_entity(entity_id))
        return histories

    def opinion(self, history_id: str):
        shard = self._server.shards[self._server.router.shard_of(history_id)]
        return shard.opinions.get(history_id)

    def has_opinion(self, history_id: str) -> bool:
        return self.opinion(history_id) is not None

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
        workers: int = 0,
        incremental: bool = True,
    ) -> None:
        if not catalog:
            raise ValueError("catalog must be non-empty")
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = serial)")
        self.catalog = {entity.entity_id: entity for entity in catalog}
        self.entity_kinds = {e.entity_id: e.kind.label for e in catalog}
        self.issuer = TokenIssuer(
            quota_per_day=quota_per_day, key_seed=key_seed, key_bits=key_bits
        )
        self.require_tokens = require_tokens
        self.attestation = attestation
        self.rejected_attestations = 0
        self.router = ShardRouter(n_shards)
        #: Worker processes for maintenance (0 = in-process serial).
        self.workers = workers
        #: Kept for resharding: split/merge derive new shard seeds from it.
        self._key_seed = key_seed
        #: Monotone count of applied reshard operations, and the ops
        #: themselves — recovery replays these to rebuild the topology.
        self.reshard_seq = 0
        self.reshard_history: list[dict] = []
        self.shards = [ShardState(index, key_seed) for index in range(n_shards)]
        self._redeemer = ShardedTokenRedeemer(self.issuer.public_key, self.router)
        #: Nonces of accepted envelopes — the idempotent-dedup table that
        #: makes client retransmission over the ack-free channel safe.
        #: Keyed on the envelope's random nonce, never on a payload or
        #: identity digest (see docs/RELIABILITY.md for why).
        self._nonce_buckets: list[set[bytes]] = [set() for _ in range(n_shards)]
        self._discovery = DiscoveryService(catalog)
        self._detector_config = detector_config
        #: ``False`` forces full kernel recompute every cycle — the
        #: contractual baseline the incremental path must match byte for
        #: byte (``tests/scale/test_incremental.py``).  ``True``
        #: re-filters/re-summarizes only dirty entities serially when the
        #: dirty set is small, falling back to the pooled kernel when most
        #: of the deployment is dirty anyway.
        self.incremental = incremental
        self._engine = MaintenanceEngine(
            ShardedStoreView(self), self.entity_kinds, detector_config
        )
        # Aliases into the engine's caches (mutated in place only), so
        # search and summary always see the latest cycle.
        self._summaries: dict[str, EntityOpinionSummary] = self._engine.summaries
        self._accepted_histories: dict[str, list[InteractionHistory]] = (
            self._engine.accepted
        )
        self._gather: GatherFrame | None = None
        self._gather_versions: tuple[int, ...] | None = None
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
        #: Times the worker pool died and maintenance re-ran serially.
        self.pool_fallbacks = 0
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
        attaching again replaces the layer and cold-starts its cache.
        """
        from repro.serve.facade import ServingLayer

        self._serving = ServingLayer(self, **kwargs)
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
        """Answer a read-path query through the cached serving layer."""
        return self.serving.query(query)

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
        device), so it is not sharded; only redemption state is.
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
        shard.reviews.setdefault(entity_id, []).append(review)
        shard.dirty_entities.add(entity_id)
        self.telemetry.inc("rsp.reviews.posted")

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

    def receive_batch(
        self, deliveries: list[Delivery[Envelope]], now: float | None = None
    ) -> int:
        """Alias of :meth:`receive_all`."""
        return ingest_all(self, deliveries, now=now)

    # -------------------------------------------------------- maintenance

    def gather_frame(self) -> GatherFrame:
        """The cross-shard summarization view, cached by store version."""
        versions = tuple(shard.version for shard in self.shards)
        if self._gather is None or self._gather_versions != versions:
            frames = [shard.frame(self.entity_kinds) for shard in self.shards]
            self._gather = build_gather(
                frames,
                [shard.opinions for shard in self.shards],
                self.router.shard_of,
                self.catalog,
            )
            self._gather_versions = versions
        return self._gather

    def _pooled_profiles(self) -> dict:
        """Fraud profiles pooled from every shard's columnar frame."""
        return profiles_from_pools(
            merge_pools(
                [collect_pools(shard.frame(self.entity_kinds)) for shard in self.shards]
            )
        )

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

        The cycle plans with the incremental engine (per-shard dirty sets
        drained in; fraud profiles rebuilt for the kinds with a dirty
        entity, or pooled from the shards' columnar frames when at least
        half the deployment is dirty) and then picks one of two
        byte-identical executions: when
        few entities are tracked, the engine re-judges and re-summarizes
        just those serially in the parent; when at least half the
        deployment is tracked — or ``incremental=False`` — the columnar
        kernel recompute is cheaper, fanned across the shards (serially
        when ``workers == 0``): it judges every shard's histories
        against the global profiles, then rebuilds entity summaries per
        entity partition.  All merges are order-independent (sums, sorted
        concatenations).

        Telemetry is recorded in the parent process only — increments in
        forked pool workers would die with the worker, and parent-side
        recording is also what keeps the aggregate export invariant
        across worker counts.
        """
        report = MaintenanceReport(
            n_histories=self.n_histories,
            n_opinions_received=self.n_opinions,
        )
        shard_indices = range(self.router.n_shards)
        # Drain the per-shard dirty sets into the engine (sorted — dirty
        # sets iterate in hash order, and `repro lint` holds the line).
        for shard in self.shards:
            for entity_id in sorted(shard.dirty_entities):
                self._engine.mark_dirty(entity_id)
            shard.dirty_entities.clear()
        full = not self.incremental
        plan = self._engine.plan(full=full, pooled=self._pooled_profiles)
        # Hybrid execution: the serial engine wins while the tracked set
        # is small; once half the deployment must recompute anyway, the
        # pooled kernel is cheaper.  Both sides are byte-identical, so
        # the threshold only moves work, never results.
        use_kernel = full or 2 * len(plan.judge_tracked) >= max(1, plan.n_entities)
        if use_kernel:
            # Warm the per-shard frames in the parent, *before* any pool
            # forks: workers then inherit read-only columnar caches and
            # never walk the store object graphs, which keeps fork-time
            # copy-on-write from duplicating the stores.
            self.gather_frame()
            with parallel.MaintenancePool(self, self.workers) as pool:
                judgements = pool.map(
                    parallel.judge_shard,
                    [
                        (index, plan.profiles, self._detector_config)
                        for index in shard_indices
                    ],
                )
                rejected = sorted(
                    (
                        verdict
                        for result in judgements
                        for verdict in result.verdicts
                    ),
                    key=lambda verdict: verdict.history_id,
                )
                rejected_ids = frozenset(verdict.history_id for verdict in rejected)
                partitions = pool.map(
                    parallel.summarize_partition,
                    [(index, rejected_ids) for index in shard_indices],
                )
            accepted_histories: dict[str, list[InteractionHistory]] = {}
            for shard in self.shards:
                for history in shard.store.all_histories():
                    if history.history_id in rejected_ids:
                        continue
                    accepted_histories.setdefault(history.entity_id, []).append(
                        history
                    )
            for histories in accepted_histories.values():
                histories.sort(key=lambda history: history.history_id)
            stats = self._engine.adopt_full(
                plan,
                accepted_histories,
                group_verdicts_by_entity(rejected),
                kept_counts(self.gather_frame(), rejected_ids),
                [summary for partition in partitions for summary in partition],
            )
        else:
            stats = self._engine.execute(plan)
        report.rejected = self._engine.rejected_verdicts()
        report.n_rejected_histories = len(report.rejected)
        report.n_opinions_kept = self._engine.n_opinions_kept
        emit_maintenance_telemetry(
            self.telemetry,
            report,
            stats,
            now,
            mode="incremental" if self.incremental else "full",
        )
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
        opinion slots (their ``seq`` ordering moves with them), explicit
        reviews, seen nonces, and spent tokens.  Dirty-entity marks move
        with the state *only for entities already marked* — marking a
        clean entity would change the incremental engine's tracked set
        and break AGGREGATE-telemetry identity with a static deployment.
        Returns per-kind moved counts.
        """
        router = self.router.split(index)
        new_index = self.n_shards_live
        source = self.shards[index]
        dest = ShardState(new_index, self._key_seed)
        moved_entities: set[str] = set()
        moved = {"histories": 0, "opinions": 0, "reviews": 0, "nonces": 0, "tokens": 0}
        for history in source.store.all_histories():
            if router.shard_of(history.history_id) == new_index:
                dest.store.adopt(source.store.release(history.history_id))
                moved_entities.add(history.entity_id)
                moved["histories"] += 1
        for history_id in sorted(source.opinions):
            if router.shard_of(history_id) == new_index:
                dest.opinions[history_id] = source.opinions.pop(history_id)
                moved["opinions"] += 1
        for entity_id in sorted(source.reviews):
            if router.shard_of(entity_id) == new_index:
                dest.reviews[entity_id] = source.reviews.pop(entity_id)
                moved_entities.add(entity_id)
                moved["reviews"] += len(dest.reviews[entity_id])
        dest.dirty_entities.update(
            entity_id
            for entity_id in moved_entities
            if entity_id in source.dirty_entities
        )
        source_nonces = self._nonce_buckets[index]
        moved_nonces = {
            nonce
            for nonce in source_nonces
            if router.shard_of_bytes(nonce) == new_index
        }
        source_nonces -= moved_nonces
        self._nonce_buckets.append(moved_nonces)
        moved["nonces"] = len(moved_nonces)
        source_tokens = self._redeemer._spent[index]
        moved_tokens = {
            token_id
            for token_id in source_tokens
            if router.shard_of_bytes(token_id) == new_index
        }
        source_tokens -= moved_tokens
        self._redeemer._spent.append(moved_tokens)
        moved["tokens"] = len(moved_tokens)
        self.shards.append(dest)
        self._finish_reshard(source, dest, router)
        return moved

    def merge_shards(self, a: int, b: int) -> dict[str, int]:
        """Merge shard ``b`` into shard ``a``; shards above ``b`` renumber.

        All of ``b``'s state lands on ``a`` through the commutative merge
        algebra: routing keeps the key spaces disjoint, so histories
        adopt into fresh slots, opinion slots and review lists transplant
        whole (review order within an entity is preserved — ``b`` owned
        the only list), nonce/token buckets union, and dirty marks union.
        Returns per-kind moved counts.
        """
        router = self.router.merge(a, b)
        source, dest = self.shards[b], self.shards[a]
        moved = {
            "histories": source.store.n_histories,
            "opinions": len(source.opinions),
            "reviews": sum(len(reviews) for reviews in source.reviews.values()),
            "nonces": len(self._nonce_buckets[b]),
            "tokens": len(self._redeemer._spent[b]),
        }
        for history in source.store.all_histories():
            dest.store.adopt(history)
        dest.opinions.update(source.opinions)
        for entity_id in sorted(source.reviews):
            dest.reviews.setdefault(entity_id, []).extend(source.reviews[entity_id])
        dest.dirty_entities |= source.dirty_entities
        self._nonce_buckets[a] |= self._nonce_buckets[b]
        del self._nonce_buckets[b]
        self._redeemer._spent[a] |= self._redeemer._spent[b]
        del self._redeemer._spent[b]
        del self.shards[b]
        for shard in self.shards[b:]:
            shard.renumber(shard.index - 1, self._key_seed)
        self._finish_reshard(source, dest, router)
        return moved

    def _finish_reshard(
        self, source: ShardState, dest: ShardState, router: ShardRouter
    ) -> None:
        """Swap the routing table in and invalidate every cached view."""
        source.store_version += 1
        source.version += 1
        dest.store_version += 1
        dest.version += 1
        self.router = router
        self._redeemer._router = router
        self._gather = None
        self._gather_versions = None
        if self.journal is not None:
            self.journal.remap_lanes(router.n_shards, router.shard_of)

    @property
    def n_shards_live(self) -> int:
        """The current shard count (changes across split/merge)."""
        return len(self.shards)

    # -------------------------------------------------------------- query

    def summary(self, entity_id: str) -> EntityOpinionSummary | None:
        return self._summaries.get(entity_id)

    def all_summaries(self) -> dict[str, EntityOpinionSummary]:
        """Every entity summary from the latest maintenance cycle.

        Canonical (entity-id) order: the engine's cache is insertion-
        ordered by recompute history — and after an
        :meth:`~repro.service.incremental.MaintenanceEngine.adopt_full`
        it reflects the kernel's partition order.  Sorting keeps every
        reader order-independent.
        """
        return {
            entity_id: self._summaries[entity_id]
            for entity_id in sorted(self._summaries)
        }

    def reviews_for(self, entity_id: str) -> list[ExplicitReview]:
        shard = self.shards[self.router.shard_of(entity_id)]
        return list(shard.reviews.get(entity_id, []))

    def search(self, query: Query, compare_top: int = 3) -> SearchResponse:
        """Answer a query with ranked results plus comparative visualizations
        of the top candidates (Figure 3 as a product feature)."""
        response = self._discovery.search(query, self._summaries)
        visualization: ComparativeVisualization | None = None
        top = [r.entity.entity_id for r in response.results[:compare_top]]
        if top:
            visualization = compare_entities(
                {
                    entity_id: self._accepted_histories.get(entity_id, [])
                    for entity_id in top
                }
            )
        return SearchResponse(
            query=response.query, results=response.results, visualization=visualization
        )

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
        return sum(len(bucket) for bucket in self._nonce_buckets)
