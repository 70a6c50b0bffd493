"""Array-native analytic model kernels (see :mod:`repro.model.arrays`)."""

from repro.model.arrays import (
    BatchScores,
    CandidateBatch,
    Eq1BatchEvaluator,
)

__all__ = [
    "BatchScores",
    "CandidateBatch",
    "Eq1BatchEvaluator",
]
