"""Array-native analytic model kernels (see :mod:`repro.model.arrays`)."""

from repro.model.arrays import (
    BOTTLENECK_LABELS,
    BatchScores,
    CandidateBatch,
    Eq1BatchEvaluator,
    score_batch,
)

__all__ = [
    "BOTTLENECK_LABELS",
    "BatchScores",
    "CandidateBatch",
    "Eq1BatchEvaluator",
    "score_batch",
]
