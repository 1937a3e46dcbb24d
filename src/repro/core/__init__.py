"""The paper's primary contribution: implicit opinion inference.

Effort/exploration/choice-set features (Section 4.1), the
effort-is-endorsement classifier with abstention, aggregate opinion
summaries with group deflation, and the Figure 3 comparative
visualizations.  The search interface that surfaces all of it (Section
3.1) is the serving layer, :mod:`repro.serve`.
"""

from repro.core.aggregation import (
    EntityOpinionSummary,
    OpinionUpload,
    RATING_EDGES,
    deflate_groups,
    influence_weight,
    rating_histogram,
    summarize_entity,
)
from repro.core.collabfilter import (
    ApplicabilityReport,
    CFRecommendation,
    ItemBasedCF,
    cf_applicability,
)
from repro.core.personalization import (
    PersonalizationWeights,
    PersonalizedResult,
    personalize,
)
from repro.core.classifier import (
    ClassifierConfig,
    InferredOpinion,
    NotFittedError,
    OpinionClassifier,
    RepeatCountBaseline,
    synthetic_training_pairs,
)
from repro.core.reminders import ReminderOutcome, ReminderPolicy, simulate_reminders
from repro.core.publication import (
    DifferencingReport,
    PublicationPolicy,
    PublishedSummary,
    coarsened_policy,
    differencing_attack,
    exact_policy,
    publish,
)
from repro.core.protocol import AnonymousRecord, Envelope
from repro.core.features import (
    CatalogDirectory,
    ChoiceSet,
    OpinionFeatures,
    extract_all_features,
    extract_features,
)
from repro.core.visualization import (
    ComparativeVisualization,
    DistanceVisitsSeries,
    VisitsHistogram,
    compare_entities,
    distance_vs_visits,
    visits_per_user_histogram,
)

__all__ = [
    "RATING_EDGES",
    "ClassifierConfig",
    "ComparativeVisualization",
    "Envelope",
    "AnonymousRecord",
    "ApplicabilityReport",
    "CFRecommendation",
    "ItemBasedCF",
    "PersonalizationWeights",
    "PersonalizedResult",
    "PublicationPolicy",
    "PublishedSummary",
    "ReminderOutcome",
    "ReminderPolicy",
    "simulate_reminders",
    "DifferencingReport",
    "coarsened_policy",
    "differencing_attack",
    "exact_policy",
    "publish",
    "cf_applicability",
    "personalize",
    "DistanceVisitsSeries",
    "EntityOpinionSummary",
    "CatalogDirectory",
    "ChoiceSet",
    "InferredOpinion",
    "NotFittedError",
    "OpinionClassifier",
    "OpinionFeatures",
    "OpinionUpload",
    "RepeatCountBaseline",
    "VisitsHistogram",
    "compare_entities",
    "deflate_groups",
    "influence_weight",
    "distance_vs_visits",
    "extract_all_features",
    "extract_features",
    "rating_histogram",
    "summarize_entity",
    "synthetic_training_pairs",
    "visits_per_user_histogram",
]
