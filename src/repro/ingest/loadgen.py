"""Sustained-traffic load generation: millions of synthetic users.

The differential suites exercise intake with fully simulated towns — a
few dozen on-device clients, real token wallets, a real mixnet.  That is
the right substrate for *correctness*, but it tops out far below the
scale ROADMAP item 1 asks about.  This module generates the traffic
shape of a million-user deployment directly at the wire format:
:class:`Delivery`-wrapped :class:`Envelope` streams whose entity
popularity follows the Zipf law the measurement study observed (a few
restaurants get most of the visits — :func:`repro.util.distributions.bounded_zipf`),
whose per-slot opinion ``seq`` numbers advance like real client
re-uploads, and whose nonces behave like real per-record retransmission
identifiers.

Everything is generated from one labelled seeded stream
(:func:`repro.util.rng.make_rng`), so a workload is exactly reproducible:
the ``ingest`` benchmark workload (:class:`SyntheticTraffic` in
``bench/workloads.py``), B8, and the differential tests all replay
identical traffic for identical configs.

Synthetic senders are plain integer indices — no identity-bearing names
exist here, and the history identifiers they map to are opaque formatted
slugs, mirroring how real ``hash(Ru, e)`` identifiers carry no structure
the server can link.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregation import OpinionUpload
from repro.core.protocol import Envelope
from repro.privacy.anonymity import Delivery
from repro.privacy.history_store import InteractionUpload
from repro.util.distributions import bounded_zipf
from repro.util.rng import make_rng
from repro.world.entities import DEFAULT_CATEGORIES, Entity, EntityKind
from repro.world.geography import Point

#: Event times are back-dated up to this much from arrival (one upload
#: quantization window), keeping ``rsp.ingest_lag`` in its first buckets.
_MAX_EVENT_LAG = 3600.0


def synthetic_catalog(n_entities: int, seed: int = 0) -> list[Entity]:
    """A catalog of ``n_entities`` plausible entities on a grid.

    Kinds cycle through the full :class:`EntityKind` enum so every
    interaction style is represented; qualities are drawn from the
    labelled stream so two catalogs with the same seed are identical.
    """
    if n_entities < 1:
        raise ValueError("need at least one entity")
    gen = make_rng(seed, "ingest/catalog")
    kinds = list(EntityKind)
    qualities = gen.uniform(0.5, 5.0, size=n_entities)
    entities = []
    for index in range(n_entities):
        kind = kinds[index % len(kinds)]
        categories = DEFAULT_CATEGORIES[kind]
        entities.append(
            Entity(
                entity_id=f"soak-{kind.label}-{index:05d}",
                kind=kind,
                category=categories[index % len(categories)],
                location=Point(x=float(index % 100) * 0.1, y=float(index // 100) * 0.1),
                quality=float(qualities[index]),
                price_level=1 + index % 4,
            )
        )
    return entities


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of one synthetic traffic stream."""

    #: Size of the synthetic population; senders are indices in
    #: ``[0, n_users)``, so millions cost nothing to "create".
    n_users: int = 1_000_000
    n_entities: int = 400
    #: Zipf popularity exponent over entity rank (1.0–1.2 matches the
    #: heavy-tailed interaction counts of the measurement study).
    zipf_exponent: float = 1.1
    #: Fraction of envelopes carrying an :class:`OpinionUpload`.
    opinion_fraction: float = 0.25
    #: Fraction re-delivered verbatim (same record, same nonce) — the
    #: at-least-once network duplicate intake must suppress.
    duplicate_fraction: float = 0.0
    #: Fraction of opinions re-uploaded under an already-used ``seq``
    #: (delayed/reordered copies the per-slot resolution must drop).
    stale_fraction: float = 0.0
    #: Fraction of envelopes naming an entity outside the catalog.
    invalid_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_entities < 1:
            raise ValueError("need at least one user and one entity")
        for name in (
            "opinion_fraction",
            "duplicate_fraction",
            "stale_fraction",
            "invalid_fraction",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


class SyntheticTraffic:
    """A deterministic, resumable stream of wire-format deliveries.

    Each :meth:`batch` call draws the next ``size`` envelopes from the
    labelled stream; the generator's cursor *is* the workload state, so
    interleaving batch sizes differently still yields the same total
    traffic prefix.
    """

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self.catalog = synthetic_catalog(config.n_entities, seed=config.seed)
        self._entity_ids = [entity.entity_id for entity in self.catalog]
        self._gen = make_rng(config.seed, "ingest/traffic")
        self._nonce_counter = 0
        #: Highest opinion ``seq`` uploaded per (sender, entity) slot.
        self._slot_seq: dict[tuple[int, int], int] = {}
        self._last_delivery: Delivery | None = None
        #: Total envelopes generated (duplicates included).
        self.generated = 0

    def _history_slug(self, sender: int, entity_index: int) -> str:
        # Opaque per-(sender, entity) slug standing in for hash(Ru, e);
        # formatted decimal, so it never looks like a linkable hex digest.
        return f"soak-h-{sender:08d}-{entity_index:05d}"

    def batch(self, size: int, now: float) -> list[Delivery]:
        """The next ``size`` deliveries, all arriving at ``now``."""
        if size <= 0:
            return []
        config = self.config
        gen = self._gen
        entity_indices = bounded_zipf(
            gen, config.zipf_exponent, config.n_entities, size
        )
        senders = gen.integers(0, config.n_users, size=size)
        rolls = gen.random(size=size)
        stale_rolls = gen.random(size=size)
        dup_rolls = gen.random(size=size)
        invalid_rolls = gen.random(size=size)
        event_lags = gen.uniform(0.0, _MAX_EVENT_LAG, size=size)
        ratings = gen.integers(0, 6, size=size)
        durations = gen.uniform(120.0, 5400.0, size=size)
        travels = gen.uniform(0.0, 12.0, size=size)

        entity_ids = self._entity_ids
        deliveries: list[Delivery] = []
        append = deliveries.append
        for i in range(size):
            if (
                config.duplicate_fraction > 0.0
                and self._last_delivery is not None
                and dup_rolls[i] < config.duplicate_fraction
            ):
                previous = self._last_delivery
                append(
                    Delivery(
                        payload=previous.payload,
                        arrival_time=now,
                        channel_tag=previous.channel_tag,
                    )
                )
                self.generated += 1
                continue
            sender = int(senders[i])
            entity_index = int(entity_indices[i])
            entity_id = entity_ids[entity_index]
            if config.invalid_fraction > 0.0 and invalid_rolls[i] < config.invalid_fraction:
                entity_id = "soak-unknown-entity"
            slug = self._history_slug(sender, entity_index)
            if rolls[i] < config.opinion_fraction:
                slot = (sender, entity_index)
                last_seq = self._slot_seq.get(slot)
                if (
                    last_seq is not None
                    and config.stale_fraction > 0.0
                    and stale_rolls[i] < config.stale_fraction
                ):
                    seq = last_seq  # a delayed copy of the current slot value
                else:
                    seq = 0 if last_seq is None else last_seq + 1
                    self._slot_seq[slot] = seq
                record: InteractionUpload | OpinionUpload = OpinionUpload(
                    history_id=slug,
                    entity_id=entity_id,
                    rating=float(ratings[i]),
                    seq=seq,
                )
            else:
                record = InteractionUpload(
                    history_id=slug,
                    entity_id=entity_id,
                    interaction_type="visit" if sender % 2 else "call",
                    event_time=max(0.0, now - float(event_lags[i])),
                    duration=float(durations[i]),
                    travel_km=float(travels[i]),
                )
            # Unique per record; the multiplicative mix spreads the
            # leading bytes like a device's random nonce, without
            # spending any randomness.
            counter = self._nonce_counter
            self._nonce_counter += 1
            mixed = (counter * 0x9E3779B97F4A7C15) % (1 << 64)
            nonce = mixed.to_bytes(8, "big") + counter.to_bytes(8, "big")
            delivery = Delivery(
                payload=Envelope(record=record, token=None, nonce=nonce),
                arrival_time=now,
                channel_tag="loadgen",
            )
            self._last_delivery = delivery
            self.generated += 1
            append(delivery)
        return deliveries
