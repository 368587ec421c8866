"""Uniform train / predict / importance interface over the eleven kinds."""

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import InsufficientData, InvalidInput, Unsupported
from .ensemble import AdaBoost, Booster, DecisionTree, RandomForest
from .knn import KNN
from .linear import LDA, QDA, GaussianNB, LogisticRegressionNewton
from .svm import SMOSVC

KINDS = ("svc", "dtc", "knn", "lr", "gnb", "lda", "qda", "rf", "gb", "ab", "xgb")

# Kinds whose trained models expose a feature-importance measure; the RBF
# SVC, knn, gnb and qda report unsupported.
IMPORTANCE_CAPABLE = ("dtc", "lr", "lda", "rf", "gb", "ab", "xgb")


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown classifier kind {self.kind!r}")
        if self.seed < 0:
            raise InvalidInput(f"seed {self.seed} must be >= 0")

    def supports_importance(self) -> bool:
        return self.kind in IMPORTANCE_CAPABLE


@dataclass
class TrainedModel:
    kind: str
    config: ClassifierConfig
    estimator: object
    feature_count: int


# Each kind's estimator but rf's, which takes the seed; gb and xgb differ in
# their split gain and leaf regularisation.
_ESTIMATORS = {
    "svc": SMOSVC, "dtc": DecisionTree, "knn": KNN, "lr": LogisticRegressionNewton,
    "gnb": GaussianNB, "lda": LDA, "qda": QDA, "ab": AdaBoost, "xgb": Booster,
    "gb": partial(Booster, reg_lambda=0.0, min_child_weight=1e-6, second_order_splits=False),
}


def _build(config: ClassifierConfig):
    if config.kind == "rf":
        return RandomForest(seed=config.seed)
    return _ESTIMATORS[config.kind]()


def canonical_order(X, y):
    """Row permutation sorting lexicographically by features then label.

    Training on canonically sorted rows makes every kind invariant to the
    input row order (bootstrap draws, SMO sweeps and distance ties all see
    the same sequence).
    """
    keys = [np.asarray(y)] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def train(config: ClassifierConfig, X, y) -> TrainedModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or len(X) != len(y):
        raise InvalidInput("X and y shapes disagree")
    if len(y) < 2:
        raise InsufficientData("need at least 2 training rows")
    if not (np.any(y == 0) and np.any(y == 1)):
        raise InsufficientData("training data must contain both classes")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise InvalidInput("training data must be finite")
    order = canonical_order(X, y)
    Xs, ys = X[order], y[order]
    est = _build(config)
    rng = np.random.default_rng(config.seed)
    est.fit(Xs, ys, rng=rng)
    return TrainedModel(config.kind, config, est, X.shape[1])


def decision_scores(model: TrainedModel, X, blocks: int = 1) -> np.ndarray:
    """Real-valued scores, monotone in fast-class confidence (0 = tie).

    ``blocks`` > 1 declares the rows of X a stack of that many equal blocks.
    They are scored in one call, and each block's scores are bit for bit
    those a call on that block alone returns: BLAS products and numpy
    reductions can round a row differently in a taller matrix.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise InvalidInput(
            f"expected {model.feature_count} features, got {X.shape}")
    if blocks < 1 or len(X) % blocks:
        raise ValueError(f"{len(X)} rows do not split into {blocks} equal blocks")
    if blocks > 1:
        X = X.reshape(blocks, len(X) // blocks, X.shape[1])
    return np.asarray(model.estimator.decision_function(X), dtype=float).reshape(-1)


def predict(model: TrainedModel, X) -> np.ndarray:
    """Hard labels: 1 (fast) when the score is positive, else 0 (slow)."""
    return (decision_scores(model, X) > 0).astype(int)


def importance(model: TrainedModel) -> np.ndarray:
    """Non-negative per-feature weights; Unsupported for a kind without them."""
    if model.kind not in IMPORTANCE_CAPABLE:
        raise Unsupported(f"{model.kind} exposes no feature-importance measure")
    imp = np.asarray(model.estimator.importance(), dtype=float)
    if len(imp) < model.feature_count:
        imp = np.concatenate([imp, np.zeros(model.feature_count - len(imp))])
    return imp
