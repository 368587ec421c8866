from .base import (
    IMPORTANCE_CAPABLE,
    KINDS,
    ClassifierConfig,
    TrainedModel,
    decision_scores,
    importance,
    predict,
    train,
    train_many,
    trained_lanes,
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
    "train_many",
    "trained_lanes",
]
