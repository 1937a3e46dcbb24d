"""End-to-end experiment drivers: world → sensing → client → server.

These modules stitch every layer of the reproduction together — they are
the only code allowed to import both the client side (:mod:`repro.client`,
:mod:`repro.sensing`) and the server side (:mod:`repro.service`).  The
server itself never touches client internals and the client never reaches
into the server; ``repro analyze`` enforces that boundary (see
``docs/STATIC_ANALYSIS.md``).
"""

from repro.orchestration.epochs import EpochReport, EpochsOutcome, run_epochs
from repro.orchestration.evaluation import (
    CalibrationBin,
    CoverageDiagnostics,
    KindAccuracy,
    abstention_calibration,
    accuracy_by_kind,
    coverage_diagnostics,
)
from repro.orchestration.pipeline import (
    PipelineConfig,
    PipelineOutcome,
    collect_training_data,
    run_full_pipeline,
    train_classifier,
)

__all__ = [
    "CalibrationBin",
    "CoverageDiagnostics",
    "EpochReport",
    "EpochsOutcome",
    "KindAccuracy",
    "PipelineConfig",
    "PipelineOutcome",
    "abstention_calibration",
    "accuracy_by_kind",
    "collect_training_data",
    "coverage_diagnostics",
    "run_epochs",
    "run_full_pipeline",
    "train_classifier",
]
