"""Fake-activity detection (Section 4.3) and the attacker zoo.

Typical-user profiles merged from anonymous histories, a deviation-based
detector with explainable verdicts, and the attack strategies the paper
names — so the economics of fraud against implicit inference can be
measured rather than asserted.
"""

from repro.fraud.attackers import (
    AttackCost,
    AttackResult,
    CallSpamAttacker,
    EmployeeAttacker,
    MimicAttacker,
    SybilAttacker,
)
from repro.fraud.attestation import (
    AttestationQuote,
    AttestationVerifier,
    PlatformVendor,
    SensorInputVerifier,
    SignedLocationSample,
    TrustedSensorStack,
    client_build_hash,
    forge_quote_without_key,
    spoof_location_samples,
)
from repro.fraud.detector import (
    DetectorConfig,
    FraudDetector,
    FraudFlag,
    HistoryVerdict,
)
from repro.fraud.profiles import (
    FeatureBand,
    TypicalProfile,
    build_profiles,
)

__all__ = [
    "AttackCost",
    "AttestationQuote",
    "AttestationVerifier",
    "PlatformVendor",
    "SensorInputVerifier",
    "SignedLocationSample",
    "TrustedSensorStack",
    "client_build_hash",
    "forge_quote_without_key",
    "spoof_location_samples",
    "AttackResult",
    "CallSpamAttacker",
    "DetectorConfig",
    "EmployeeAttacker",
    "FeatureBand",
    "FraudDetector",
    "FraudFlag",
    "HistoryVerdict",
    "MimicAttacker",
    "SybilAttacker",
    "TypicalProfile",
    "build_profiles",
]
