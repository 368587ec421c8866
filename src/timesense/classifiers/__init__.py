from .base import (
    IMPORTANCE_CAPABLE,
    KINDS,
    ClassifierConfig,
    TrainedModel,
    decision_scores,
    importance,
    predict,
    train,
)

__all__ = [
    "IMPORTANCE_CAPABLE",
    "KINDS",
    "ClassifierConfig",
    "TrainedModel",
    "decision_scores",
    "importance",
    "predict",
    "train",
]
