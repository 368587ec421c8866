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
]
