"""The RSP's smartphone app: the client half of Figure 2.

Orchestrates everything that happens on the device:

1. **Perceive** — resolve the raw sensor trace into observed user-entity
   interactions (all locally; raw location and call history never leave
   the phone).
2. **Remember, briefly** — keep only a recent snapshot locally, purging
   anything past the retention threshold (Section 4.2).
3. **Infer** — extract effort/exploration/choice-set features and run the
   opinion classifier, journaling every inference in the transparency log
   where the user can correct or suppress it (Section 5).
4. **Share, anonymously** — wrap interaction records and surviving
   inferred opinions in token-bearing envelopes and push them through the
   anonymity network on per-upload channels with random delays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregation import OpinionUpload
from repro.core.classifier import OpinionClassifier
from repro.core.features import CatalogDirectory, extract_all_features
from repro.core.personalization import PersonalizationWeights, PersonalizedResult, personalize
from repro.client.snapshot import LocalSnapshot
from repro.client.transparency import InferenceEntry, InferenceStatus, TransparencyLog
from repro.durability import seal, unseal
from repro.privacy.anonymity import AnonymityNetwork
from repro.privacy.blindsig import BlindingResult
from repro.privacy.history_store import InteractionUpload
from repro.privacy.identifiers import DeviceIdentity
from repro.privacy.tokens import (
    IssuerUnavailable,
    QuotaExceeded,
    TokenIssuer,
    TokenWallet,
    UploadToken,
)
from repro.privacy.uploads import (
    RetransmitPolicy,
    UploadConfig,
    UploadScheduler,
    hardened_config,
)
from repro.sensing.location import StayPoint, StayPointFold, extract_stay_points
from repro.sensing.resolution import ObservedInteraction
from repro.sensing.traces import DeviceTrace
from repro.core.protocol import AnonymousRecord, Envelope
from repro.telemetry import NULL, Telemetry
from repro.util.clock import DAY
from repro.util.rng import make_rng
from repro.world.entities import Entity
from repro.world.geography import Point

#: Sealed-checkpoint format tag (see docs/DURABILITY.md).
CHECKPOINT_FORMAT = "rsp-checkpoint/1"


def infer_home(
    trace: DeviceTrace,
    stays: list[StayPoint] | None = None,
    first_point: Point | None = None,
) -> Point:
    """The client's own guess at the user's primary anchor.

    The location with the most total dwell time across the trace's stay
    points — no ground truth involved.  With no stay points, the first
    fix stands in.  A caller holding the stream's stay points and first
    fix (a window trace starts mid-stream) passes them in.
    """
    if stays is None:
        stays = extract_stay_points(trace.locations)
    if not stays:
        if first_point is not None:
            return first_point
        if len(trace.locations):
            return trace.locations.point(0)
        return Point(0.0, 0.0)
    dwell: dict[tuple[int, int], tuple[float, Point]] = {}
    for stay in stays:
        key = (round(stay.center.x * 2), round(stay.center.y * 2))  # ~500 m cells
        total, _ = dwell.get(key, (0.0, stay.center))
        dwell[key] = (total + stay.duration, stay.center)
    return max(dwell.values(), key=lambda pair: pair[0])[1]


@dataclass
class ClientStats:
    """Counters for observability and the integration tests."""

    interactions_observed: int = 0
    inferences_made: int = 0
    inferences_abstained: int = 0
    envelopes_submitted: int = 0
    envelopes_deferred: int = 0
    snapshot_purged: int = 0
    #: Re-sends of already-submitted records (fresh envelope, same nonce).
    retransmissions: int = 0
    #: Token-issuance attempts that hit an issuer outage and backed off.
    issuer_retries: int = 0
    #: Issuance requests abandoned after exhausting the backoff schedule.
    issuer_failures: int = 0


@dataclass
class PendingRecord:
    """One record queued for (re-)upload.

    The ``nonce`` is fixed at staging time and reused by every attempt —
    it is the server's idempotency key.  Everything *around* the record
    (token, channel tag, delay) is fresh per attempt, so retries stay
    unlinkable.
    """

    record: AnonymousRecord
    base_time: float
    nonce: bytes
    attempts: int = 0
    last_attempt_time: float | None = None


class RSPClient:
    """One user's installation of the RSP app.

    ``catalog`` is the public entity directory: a :class:`CatalogDirectory`
    that a deployment builds once and shares with every client, or a list
    of entities this client turns into its own.
    """

    def __init__(
        self,
        device_id: str,
        catalog: CatalogDirectory | list[Entity],
        classifier: OpinionClassifier,
        seed: int = 0,
        upload_config: UploadConfig | None = None,
        snapshot_retention: float = 30 * DAY,
        retransmit: RetransmitPolicy | None = None,
    ) -> None:
        self._seed = seed
        self.identity = DeviceIdentity.create(device_id, seed=seed)
        self.directory = CatalogDirectory.of(catalog)
        self.catalog = self.directory.entities
        self.classifier = classifier
        self.resolver = self.directory.resolver
        self.scheduler = UploadScheduler(
            self.identity, upload_config or hardened_config(), seed=seed
        )
        self.wallet = TokenWallet(device_id=device_id, seed=seed)
        self.snapshot = LocalSnapshot(retention=snapshot_retention)
        self.transparency = TransparencyLog()
        self.stats = ClientStats()
        #: ``None`` sends each record exactly once (the seed behaviour);
        #: a policy enables bounded re-sending under the same nonce.
        self.retransmit = retransmit
        #: Aggregate-only observability sink shared with the deployment;
        #: see :meth:`attach_telemetry`.
        self.telemetry: Telemetry = NULL
        self._nonce_rng = make_rng(seed, f"client-nonce/{device_id}")
        self._interactions: list[ObservedInteraction] = []
        self._pending: list[PendingRecord] = []
        #: Interactions already staged for upload, so repeated observation
        #: windows (periodic syncs) never double-upload a record.
        self._staged_interactions: set[tuple[str, float]] = set()
        #: Last staged opinion per entity, so a re-inferred unchanged
        #: opinion is not re-uploaded every epoch.
        self._staged_opinions: dict[str, float] = {}
        #: Per-entity upload version for the opinion slot: bumped on each
        #: re-staged (changed) inference, carried as ``OpinionUpload.seq``
        #: so the server can order re-uploads without trusting arrival
        #: order (see docs/RELIABILITY.md).
        self._opinion_seqs: dict[str, int] = {}
        self._inferred_home: Point | None = None
        #: Stay-point fold over the final location samples seen so far.
        self._fold = StayPointFold(self.resolver.config.stay_points)
        #: Resolved entity calls of the call rows seen so far, and the
        #: count of those rows.
        self._calls: list[ObservedInteraction] = []
        self._n_call_rows = 0

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Share one deployment-wide sink with this client's components."""
        self.telemetry = telemetry
        self.scheduler.telemetry = telemetry
        self.wallet.telemetry = telemetry

    # ------------------------------------------------------------ perceive

    def observe_trace(
        self,
        trace: DeviceTrace,
        now: float,
        emotion: dict[str, float] | None = None,
    ) -> list[ObservedInteraction]:
        """Resolve a trace, update the snapshot, infer opinions.

        ``trace`` is either a full trace or a window continuing what was
        observed so far, for the location samples and the call log each:
        ``window_start == 0`` starts the stay-point fold afresh and
        ``call_start == 0`` the resolved calls; any other start must
        continue the samples folded, or the call rows resolved, so far, and
        raises ``ValueError`` otherwise.  ``emotion`` optionally supplies
        per-entity wearable valence means (see
        :mod:`repro.sensing.wearables`).
        """
        if trace.call_start not in (0, self._n_call_rows):
            raise ValueError(
                f"call window starts at row {trace.call_start}, but "
                f"{self._n_call_rows} rows are resolved"
            )
        stream = self._fold_window(trace)
        stays = stream.stays()
        if trace.call_start == 0:
            self._calls, self._n_call_rows = [], 0
        self._calls += self.resolver.resolve_calls(trace.call_records)
        self._n_call_rows += len(trace.call_records)
        interactions = self.resolver.resolve(trace, stays, self._calls)
        self._interactions = interactions
        self.stats.interactions_observed = len(interactions)
        self.snapshot.add_all(interactions)
        self.stats.snapshot_purged += self.snapshot.purge(now)

        home = infer_home(trace, stays, stream.first_point)
        self._inferred_home = home
        features = extract_all_features(interactions, self.directory, home, emotion=emotion)
        for entity_id, feature_vector in features.items():
            opinion = self.classifier.predict(feature_vector)
            evidence = (
                f"{int(feature_vector.n_interactions)} interactions over "
                f"{feature_vector.span_days:.0f} days, "
                f"avg travel {feature_vector.mean_travel_km:.1f} km"
            )
            self.transparency.record(entity_id, now, opinion, evidence)
            if opinion.abstained:
                self.stats.inferences_abstained += 1
            else:
                self.stats.inferences_made += 1
        self._stage_envelopes(features)
        return interactions

    def _fold_window(self, trace: DeviceTrace) -> StayPointFold:
        """Fold the window's final samples for keeps; return a fold of the
        whole stream so far, its provisional tail included."""
        if trace.window_start == 0:
            self._fold = StayPointFold(self.resolver.config.stay_points)
        elif trace.window_start != self._fold.n_folded:
            raise ValueError(
                f"trace window starts at sample {trace.window_start}, but "
                f"{self._fold.n_folded} samples are folded"
            )
        fixes = trace.locations
        self._fold.extend(fixes[: trace.n_final])
        stream = self._fold.copy()
        stream.extend(fixes[trace.n_final :])
        return stream

    def _fresh_nonce(self) -> bytes:
        return bytes(self._nonce_rng.bytes(16))

    def _stage(self, record: AnonymousRecord, base_time: float) -> None:
        self._pending.append(
            PendingRecord(record=record, base_time=base_time, nonce=self._fresh_nonce())
        )

    def _stage_envelopes(self, features) -> None:
        by_entity: dict[str, list[ObservedInteraction]] = {}
        for interaction in self._interactions:
            by_entity.setdefault(interaction.entity_id, []).append(interaction)

        for entity_id, own in by_entity.items():
            entry = self.transparency._entries.get(entity_id)
            if entry is not None and entry.status is InferenceStatus.SUPPRESSED:
                continue  # the user forbade sharing anything about this entity
            for interaction in own:
                key = (interaction.entity_id, interaction.time)
                if key in self._staged_interactions:
                    continue
                self._staged_interactions.add(key)
                upload = self.scheduler.build_upload(interaction)
                self._stage(upload, interaction.time + interaction.duration)
            rating = entry.effective_rating if entry is not None else None
            if rating is not None and self._staged_opinions.get(entity_id) != rating:
                self._staged_opinions[entity_id] = rating
                seq = self._opinion_seqs.get(entity_id, -1) + 1
                self._opinion_seqs[entity_id] = seq
                last = max(i.time + i.duration for i in own)
                self._stage(
                    OpinionUpload(
                        history_id=self.identity.history_id(entity_id),
                        entity_id=entity_id,
                        rating=rating,
                        seq=seq,
                    ),
                    last,
                )

    # --------------------------------------------------------------- share

    #: Deterministic backoff offsets (seconds of simulated time) between
    #: token-issuance attempts when the issuer is down.
    ISSUANCE_BACKOFF: tuple[float, ...] = (300.0, 1800.0, 7200.0)

    def acquire_tokens(self, issuer: TokenIssuer, count: int, now: float) -> int:
        """Get up to ``count`` tokens, respecting the issuer's quota.

        Issuance is the one attributed, ack-bearing exchange in the
        protocol, so failures here are observable and retried: an
        :class:`IssuerUnavailable` outage backs off along
        :data:`ISSUANCE_BACKOFF` before giving up for this sync.  Either
        way a failed issuance rolls its blinded candidates back out of the
        wallet — leaving them pending would desynchronize the FIFO
        blinding/signature pairing and poison every later issuance.
        """
        allowed = min(count, issuer.remaining_quota(self.identity.device_id, now))
        if allowed <= 0:
            return 0
        blinded = self.wallet.mint(issuer.public_key, allowed)
        attempt_time = now
        for backoff in (0.0,) + self.ISSUANCE_BACKOFF:
            attempt_time += backoff
            try:
                signatures = issuer.issue(
                    self.identity.device_id, blinded, now=attempt_time
                )
            except QuotaExceeded:
                self.wallet.discard_pending(blinded)
                return 0
            except IssuerUnavailable:
                self.stats.issuer_retries += 1
                self.telemetry.inc("client.issuer.retries")
                continue
            self.wallet.accept_signatures(issuer.public_key, signatures)
            return allowed
        self.wallet.discard_pending(blinded)
        self.stats.issuer_failures += 1
        self.telemetry.inc("client.issuer.failures")
        return 0

    def _submit_pending(
        self, pending: PendingRecord, network: AnonymityNetwork, base_time: float
    ) -> None:
        stamped = Envelope(
            record=pending.record, token=self.wallet.spend(), nonce=pending.nonce
        )
        self.scheduler.submit_payload(stamped, base_time, network)
        pending.attempts += 1
        pending.last_attempt_time = base_time

    def sync(self, network: AnonymityNetwork, issuer: TokenIssuer, now: float) -> int:
        """Attach tokens to pending records and submit what quota allows.

        Records beyond today's token quota stay queued for the next sync —
        rate limiting throttles, it never drops.  First-time sends go out
        before retransmissions; with a :class:`RetransmitPolicy` installed,
        already-sent records are re-enveloped (same nonce, fresh token and
        channel tag, delay re-randomized from ``now``) until they hit
        ``max_attempts``, after which they leave the queue for good.
        """
        first_sends = [p for p in self._pending if p.attempts == 0]
        retry_candidates: list[PendingRecord] = []
        if self.retransmit is not None:
            retry_candidates = [
                p
                for p in self._pending
                if 0
                < p.attempts
                < self.retransmit.max_attempts
                and p.last_attempt_time is not None
                and now - p.last_attempt_time >= self.retransmit.min_interval
            ]
        needed = len(first_sends) + len(retry_candidates) - self.wallet.balance
        if needed > 0:
            self.acquire_tokens(issuer, needed, now)

        submitted = 0
        for pending in first_sends:
            if self.wallet.balance == 0:
                break
            self._submit_pending(pending, network, pending.base_time)
            submitted += 1
        for pending in retry_candidates:
            if self.wallet.balance == 0:
                break
            # Re-randomize the send time from *now*: the copy's timing must
            # correlate with this sync, not with the original interaction.
            self._submit_pending(pending, network, now)
            submitted += 1
            self.stats.retransmissions += 1
            self.telemetry.inc("client.retransmissions")

        max_attempts = 1 if self.retransmit is None else self.retransmit.max_attempts
        self._pending = [p for p in self._pending if p.attempts < max_attempts]
        self.stats.envelopes_submitted += submitted
        if submitted:
            self.telemetry.inc("client.envelopes.submitted", submitted)
        self.stats.envelopes_deferred = self.n_pending
        return submitted

    @property
    def n_pending(self) -> int:
        """Records never yet sent (awaiting their first submission)."""
        return sum(1 for p in self._pending if p.attempts == 0)

    # ----------------------------------------------------------- durability

    def checkpoint(self) -> dict:
        """Serialize everything a crash must not lose, JSON-compatibly.

        Covered: the device identity secret, the pending upload queue
        (records, nonces, attempt counts), the token wallet (spendable
        tokens, in-flight blindings, mint counter), the scheduler and nonce
        RNG streams, the staged-work dedup sets, user transparency
        overrides, and the stats counters.  Deliberately *not* covered:
        resolved interactions and calls, the local snapshot, model
        inferences, and the stay-point fold — those are rederived from the
        next ``observe_trace``, and the staged sets guarantee rederivation
        never re-uploads anything.  A restored client's fold and calls are
        empty, so its next trace must be a full one (``window_start == 0``
        and ``call_start == 0``): the stays and calls are rebuilt from the
        whole stream and log.

        The result is sealed through the same canonical serializer the
        server's snapshots use (:func:`repro.durability.seal`), so a
        checkpoint that rots on flash storage is *rejected* at restore
        with a digest mismatch instead of silently restoring garbage.
        """
        return seal(self._checkpoint_state(), CHECKPOINT_FORMAT)

    def _checkpoint_state(self) -> dict:
        return {
            "device_id": self.identity.device_id,
            "seed": self._seed,
            "identity_secret": self.identity.secret,
            "scheduler_rng": self.scheduler.rng_state(),
            "nonce_rng": self._nonce_rng.bit_generator.state,
            "wallet": {
                "minted": self.wallet._minted,
                "tokens": [
                    {"token_id": t.token_id.hex(), "signature": t.signature}
                    for t in self.wallet._tokens
                ],
                "pending_blindings": [
                    {
                        "message": b.message.hex(),
                        "blinded": b.blinded,
                        "unblinder": b.unblinder,
                    }
                    for b in self.wallet._pending
                ],
            },
            "pending": [
                {
                    "kind": "interaction"
                    if isinstance(p.record, InteractionUpload)
                    else "opinion",
                    "record": {
                        field: getattr(p.record, field)
                        for field in p.record.__dataclass_fields__
                    },
                    "base_time": p.base_time,
                    "nonce": p.nonce.hex(),
                    "attempts": p.attempts,
                    "last_attempt_time": p.last_attempt_time,
                }
                for p in self._pending
            ],
            "staged_interactions": sorted(self._staged_interactions),
            "staged_opinions": dict(self._staged_opinions),
            "opinion_seqs": dict(self._opinion_seqs),
            "overrides": [
                {
                    "entity_id": entry.entity_id,
                    "time": entry.time,
                    "status": entry.status.value,
                    "corrected_rating": entry.corrected_rating,
                }
                for entry in self.transparency._entries.values()
                if entry.status is not InferenceStatus.ACTIVE
            ],
            "stats": {
                field: getattr(self.stats, field)
                for field in self.stats.__dataclass_fields__
            },
        }

    @classmethod
    def restore(
        cls,
        state: dict,
        catalog: CatalogDirectory | list[Entity],
        classifier: OpinionClassifier,
        upload_config: UploadConfig | None = None,
        snapshot_retention: float = 30 * DAY,
        retransmit: RetransmitPolicy | None = None,
    ) -> "RSPClient":
        """Rebuild a client from a :meth:`checkpoint` after a crash.

        Catalog, classifier, and policies are code/configuration, not
        state — the restored install supplies them exactly as a reinstalled
        app ships its own binaries.  Sealed checkpoints are verified first:
        a corrupted blob raises
        :class:`~repro.durability.CorruptStateError` naming the digest
        mismatch rather than failing mid-restore on a decode error.
        Pre-sealing (flat-dict) checkpoints restore unchanged.
        """
        if "digest" in state and "state" in state:
            state = unseal(state, CHECKPOINT_FORMAT)
        client = cls(
            device_id=state["device_id"],
            catalog=catalog,
            classifier=classifier,
            seed=state.get("seed", 0),
            upload_config=upload_config,
            snapshot_retention=snapshot_retention,
            retransmit=retransmit,
        )
        client.identity = DeviceIdentity(
            device_id=state["device_id"], secret=state["identity_secret"]
        )
        client.scheduler.identity = client.identity
        client.scheduler.restore_rng_state(state["scheduler_rng"])
        client._nonce_rng.bit_generator.state = state["nonce_rng"]
        client.wallet._minted = state["wallet"]["minted"]
        client.wallet._tokens = [
            UploadToken(token_id=bytes.fromhex(t["token_id"]), signature=t["signature"])
            for t in state["wallet"]["tokens"]
        ]
        client.wallet._pending = [
            BlindingResult(
                message=bytes.fromhex(b["message"]),
                blinded=b["blinded"],
                unblinder=b["unblinder"],
            )
            for b in state["wallet"]["pending_blindings"]
        ]
        for item in state["pending"]:
            record_cls = (
                InteractionUpload if item["kind"] == "interaction" else OpinionUpload
            )
            client._pending.append(
                PendingRecord(
                    record=record_cls(**item["record"]),
                    base_time=item["base_time"],
                    nonce=bytes.fromhex(item["nonce"]),
                    attempts=item["attempts"],
                    last_attempt_time=item["last_attempt_time"],
                )
            )
        client._staged_interactions = {
            (entity_id, time) for entity_id, time in state["staged_interactions"]
        }
        client._staged_opinions = dict(state["staged_opinions"])
        # Older checkpoints predate per-slot versioning; seq resumes at 0,
        # which is safe because the server tie-breaks toward the record it
        # already holds and only a *changed* rating is ever re-staged.
        client._opinion_seqs = dict(state.get("opinion_seqs", {}))
        for item in state["overrides"]:
            # A non-ACTIVE entry carries the user's decision; the model
            # opinion is refreshed by the next observe_trace.
            client.transparency._entries[item["entity_id"]] = InferenceEntry(
                entity_id=item["entity_id"],
                time=item["time"],
                model_opinion=None,
                evidence="(restored from checkpoint)",
                status=InferenceStatus(item["status"]),
                corrected_rating=item["corrected_rating"],
            )
        for field, value in state["stats"].items():
            setattr(client.stats, field, value)
        return client

    # ------------------------------------------------------- personalization

    def personalize_response(
        self, response, weights: PersonalizationWeights | None = None
    ) -> list[PersonalizedResult]:
        """Re-rank a server query response (``RSPServer.query``) against
        this user's own log.

        The Section 5 install incentive, computed entirely on the device:
        the user's inferred (or corrected) opinions and their inferred home
        anchor adjust the server's anonymous ranking.  Requires a prior
        ``observe_trace`` (to know the home anchor).
        """
        home = self._inferred_home if self._inferred_home is not None else Point(0.0, 0.0)
        return personalize(response, self.transparency, home, weights)
