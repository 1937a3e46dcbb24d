"""The end-to-end Figure 2 pipeline: world → sensing → client → server.

This is the scoring driver behind the F2 benchmark and the A2 coverage
claim.  The architecture itself runs in
:func:`~repro.orchestration.epochs.run_epochs` — the one driver of the
paper's architecture diagram — and this module scores one epoch of it
spanning the whole observation window:

1. simulate the physical world (ground-truth opinions stay inside the
   simulator);
2. train the opinion classifier on the posting minority — correlating
   their observed interactions with the ratings they chose to post;
3. run every user's client: sense, resolve, infer, and upload through the
   anonymity network with tokens (one epoch of :func:`run_epochs`);
4. run the server: token checking, fraud filtering, aggregation;
5. score the outcome against ground truth: opinion coverage before/after,
   inference accuracy, abstention behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.client.app import RSPClient, infer_home
from repro.core.classifier import ClassifierConfig, OpinionClassifier
from repro.core.features import CatalogDirectory, OpinionFeatures, extract_all_features
from repro.privacy.uploads import RetransmitPolicy, UploadConfig, hardened_config
from repro.sensing.policy import SensingPolicy, duty_cycled_policy
from repro.sensing.sensors import TraceConfig, generate_trace
from repro.sensing.wearables import valence_feature
from repro.service.server import RSPServer
from repro.util.clock import DAY
from repro.world.behavior import SimulationResult
from repro.world.population import Town


@dataclass(frozen=True)
class PipelineConfig:
    """Settings of one full-pipeline run."""

    horizon_days: float = 180.0
    quota_per_day: int = 96
    key_bits: int = 256  # simulation substrate; small keys keep runs fast
    batch_interval: float = 6 * 3600.0
    upload: UploadConfig = field(default_factory=hardened_config)
    #: ``None`` = send each record exactly once (the seed behaviour);
    #: a policy enables bounded, nonce-deduplicated retransmission.
    retransmit: RetransmitPolicy | None = None
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    #: Feed the wearable affect channel (Section 3.1's scoped-out idea)
    #: into feature extraction for both training and deployment.
    use_wearables: bool = False
    seed: int = 0


@dataclass
class PipelineOutcome:
    """Everything the benchmarks score."""

    server: RSPServer
    clients: dict[str, RSPClient]
    #: entity_id -> number of explicit reviews (the world before the paper).
    explicit_per_entity: dict[str, int]
    #: entity_id -> explicit + surviving inferred opinions (the world after).
    total_per_entity: dict[str, int]
    #: |inferred - truth| for every non-abstained inference with known truth.
    inference_errors: list[float]
    #: |posted rating - truth| for explicit reviews (the accuracy yardstick).
    review_errors: list[float]
    n_inferences: int = 0
    n_abstentions: int = 0

    @property
    def mean_absolute_error(self) -> float:
        if not self.inference_errors:
            return float("nan")
        return float(np.mean(self.inference_errors))

    @property
    def abstention_rate(self) -> float:
        total = self.n_inferences + self.n_abstentions
        if total == 0:
            return 0.0
        return self.n_abstentions / total

    def median_opinions_before(self) -> float:
        counts = [self.explicit_per_entity.get(e, 0) for e in self.total_per_entity]
        return float(np.median(counts)) if counts else 0.0

    def median_opinions_after(self) -> float:
        counts = list(self.total_per_entity.values())
        return float(np.median(counts)) if counts else 0.0

    def coverage_gain(self) -> float:
        """Mean opinions-per-entity ratio, after vs before (entities with
        any opinion)."""
        before = sum(self.explicit_per_entity.get(e, 0) for e in self.total_per_entity)
        after = sum(self.total_per_entity.values())
        if before == 0:
            return float("inf") if after > 0 else 1.0
        return after / before


def collect_training_data(
    town: Town,
    result: SimulationResult,
    horizon: float,
    policy: SensingPolicy | None = None,
    trace_config: TraceConfig | None = None,
    seed: int = 0,
    use_wearables: bool = False,
) -> tuple[list[OpinionFeatures], list[float]]:
    """Build (features, rating) pairs from the posting minority.

    For every posted review, extract the reviewer's observed features for
    the reviewed entity from their own device trace — exactly the training
    signal the RSP can legitimately collect (the user volunteered the
    rating; the features come from their consenting client).
    """
    policy = policy or duty_cycled_policy()
    directory = CatalogDirectory(town.entities)
    reviews_by_user: dict[str, list] = {}
    for review in result.reviews:
        reviews_by_user.setdefault(review.user_id, []).append(review)

    features: list[OpinionFeatures] = []
    ratings: list[float] = []
    for user_id, reviews in reviews_by_user.items():
        trace = generate_trace(user_id, town, result, horizon, policy, trace_config, seed)
        interactions = directory.resolver.resolve(trace)
        if not interactions:
            continue
        home = infer_home(trace)
        emotion = valence_feature(user_id, result, horizon, seed) if use_wearables else None
        per_entity = extract_all_features(interactions, directory, home, emotion=emotion)
        for review in reviews:
            feature_vector = per_entity.get(review.entity_id)
            if feature_vector is None:
                continue
            features.append(feature_vector)
            ratings.append(float(review.rating))
    return features, ratings


#: Below this many locally collected (features, rating) pairs, training is
#: padded with the cold-start behavioural prior (a stand-in for the global
#: user base a real RSP would pretrain on).
MIN_LOCAL_TRAINING_PAIRS = 30


def train_classifier(
    town: Town,
    result: SimulationResult,
    horizon: float,
    config: ClassifierConfig | None = None,
    seed: int = 0,
    use_wearables: bool = False,
) -> OpinionClassifier:
    """Train the opinion classifier from posted reviews.

    Small or young deployments may not have enough posting users to learn
    from; in that case the local pairs are topped up with
    :func:`repro.core.classifier.synthetic_training_pairs`, the cold-start
    prior, so the pipeline degrades gracefully instead of failing.
    """
    from repro.core.classifier import synthetic_training_pairs

    features, ratings = collect_training_data(
        town, result, horizon, seed=seed, use_wearables=use_wearables
    )
    if len(features) < MIN_LOCAL_TRAINING_PAIRS:
        pad_n = MIN_LOCAL_TRAINING_PAIRS - len(features) + 20
        pad_features, pad_ratings = synthetic_training_pairs(pad_n, seed=seed)
        features = features + pad_features
        ratings = ratings + pad_ratings
    classifier = OpinionClassifier(config)
    classifier.fit(features, ratings)
    return classifier


def run_full_pipeline(
    town: Town,
    result: SimulationResult,
    config: PipelineConfig | None = None,
    classifier: OpinionClassifier | None = None,
    max_users: int | None = None,
) -> PipelineOutcome:
    """Run the complete Figure 2 architecture once and score it.

    The run is one epoch of :func:`~repro.orchestration.epochs.run_epochs`
    spanning the horizon, so it shares every line of the deployment loop
    the golden grid and the chaos matrix guard.  That epoch ingests what
    the mix released by ``horizon + 2·DAY``: every upload config the
    repository builds delays a record by at most 24 h, plus one mix batch
    (6 h by default), so nothing is still in flight by then.
    """
    # epochs.py imports this module, so the driver is imported on use.
    from repro.orchestration.epochs import run_epochs

    config = config or PipelineConfig()
    horizon = config.horizon_days * DAY
    deployment = run_epochs(
        town, result, config, n_epochs=1, classifier=classifier, max_users=max_users
    )
    server, clients = deployment.server, deployment.clients

    # ---------------------------------------------------------- scoring
    explicit_per_entity: dict[str, int] = {}
    for review in result.reviews:
        if review.time < horizon:
            explicit_per_entity[review.entity_id] = (
                explicit_per_entity.get(review.entity_id, 0) + 1
            )
    total_per_entity: dict[str, int] = {}
    for entity_id in server.catalog:
        summary = server.summary(entity_id)
        if summary is None:
            if entity_id in explicit_per_entity:
                total_per_entity[entity_id] = explicit_per_entity[entity_id]
            continue
        if summary.total_opinions > 0:
            total_per_entity[entity_id] = summary.total_opinions

    inference_errors: list[float] = []
    n_inferences = 0
    n_abstentions = 0
    for user_id, client in clients.items():
        for entry in client.transparency.audit():
            rating = entry.effective_rating
            if rating is None:
                n_abstentions += 1
                continue
            n_inferences += 1
            truth = result.opinions.get((user_id, entry.entity_id))
            if truth is not None:
                inference_errors.append(abs(rating - truth.opinion))

    review_errors: list[float] = []
    for review in result.reviews:
        truth = result.opinions.get((review.user_id, review.entity_id))
        if truth is not None:
            review_errors.append(abs(review.rating - truth.opinion))

    return PipelineOutcome(
        server=server,
        clients=clients,
        explicit_per_entity=explicit_per_entity,
        total_per_entity=total_per_entity,
        inference_errors=inference_errors,
        review_errors=review_errors,
        n_inferences=n_inferences,
        n_abstentions=n_abstentions,
    )
