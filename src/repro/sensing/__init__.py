"""Device sensing: raw traces, stay points, entity resolution, energy.

This package is the RSP client's perception layer.  It converts
ground-truth physical activity into noisy sensor streams (the substitute
for real smartphone feeds) and then — seeing only those streams — recovers
user-entity interactions the way the paper's envisioned app would.
"""

from repro.sensing.energy import PolicyEvaluation, evaluate_policy
from repro.sensing.location import (
    StayPoint,
    StayPointConfig,
    StayPointFold,
    extract_stay_points,
)
from repro.sensing.policy import SensingPolicy, continuous_policy, duty_cycled_policy
from repro.sensing.resolution import (
    EntityResolver,
    InteractionType,
    ObservedInteraction,
    ResolverConfig,
)
from repro.sensing.sensors import (
    TraceCarry,
    TraceConfig,
    generate_trace,
    generate_traces,
    trace_carries,
)
from repro.sensing.spatial import GridIndex
from repro.sensing.wearables import (
    EmotionSample,
    WearableConfig,
    generate_emotion_trace,
    mean_valence_by_entity,
    valence_of_opinion,
)
from repro.sensing.traces import (
    CallDirection,
    CallRecord,
    DeviceTrace,
    LocationColumns,
    LocationSample,
    PaymentRecord,
)

__all__ = [
    "CallDirection",
    "CallRecord",
    "DeviceTrace",
    "EmotionSample",
    "WearableConfig",
    "generate_emotion_trace",
    "mean_valence_by_entity",
    "valence_of_opinion",
    "EntityResolver",
    "GridIndex",
    "InteractionType",
    "LocationColumns",
    "LocationSample",
    "ObservedInteraction",
    "PaymentRecord",
    "PolicyEvaluation",
    "ResolverConfig",
    "SensingPolicy",
    "StayPoint",
    "StayPointConfig",
    "StayPointFold",
    "TraceCarry",
    "TraceConfig",
    "continuous_policy",
    "duty_cycled_policy",
    "evaluate_policy",
    "extract_stay_points",
    "generate_trace",
    "generate_traces",
    "trace_carries",
]
