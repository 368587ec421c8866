"""Uniform train / predict / importance interface over the eleven kinds."""

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientData, InvalidInput, Unsupported
from .ensemble import AdaBoost, Booster, DecisionTree, GradientBoosting, RandomForest, XGBoost
from .knn import KNN
from .linear import LDA, QDA, GaussianNB, LogisticRegressionNewton
from .svm import SMOSVC
from .tree import lane_blocks

KINDS = ("svc", "dtc", "knn", "lr", "gnb", "lda", "qda", "rf", "gb", "ab", "xgb")

# Each kind's estimator, a fixed algorithm; only rf's takes an argument, the
# seed.
_ESTIMATORS = {
    "svc": SMOSVC, "dtc": DecisionTree, "knn": KNN, "lr": LogisticRegressionNewton,
    "gnb": GaussianNB, "lda": LDA, "qda": QDA, "rf": RandomForest, "gb": GradientBoosting,
    "ab": AdaBoost, "xgb": XGBoost,
}

# Kinds whose trained models expose a feature-importance measure; the RBF
# SVC, knn, gnb and qda report unsupported.
IMPORTANCE_CAPABLE = tuple(k for k in KINDS if hasattr(_ESTIMATORS[k], "importance"))


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


def _build(config: ClassifierConfig):
    if config.kind == "rf":
        return RandomForest(config.seed)
    return _ESTIMATORS[config.kind]()


def canonical_order(X, y):
    """Row permutation sorting lexicographically by features then label; of
    a stack X (..., n, d) and y (..., n), one permutation per lane.

    Training on canonically sorted rows makes every kind invariant to the
    input row order (bootstrap draws, SMO sweeps and distance ties all see
    the same sequence).
    """
    keys = [np.asarray(y)] + [X[..., j] for j in range(X.shape[-1] - 1, -1, -1)]
    return np.lexsort(keys, axis=-1)


def _training_rows(X, y):
    """Checked training rows (X, y) in canonical order."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise InvalidInput("X and y shapes disagree")
    if len(y) < 2:
        raise InsufficientData("need at least 2 training rows")
    if not np.all((y == 0) | (y == 1)):
        raise InvalidInput("training labels must be exactly 0 or 1")
    if not (np.any(y == 0) and np.any(y == 1)):
        raise InsufficientData("training data must contain both classes")
    if not np.all(np.isfinite(X)):
        raise InvalidInput("training data must be finite")
    order = canonical_order(X, y)
    return X[order], y[order].astype(int)


def _training_lanes(lanes):
    """``_training_rows`` of every lane. The lanes of one (rows, width)
    shape are checked and sorted as one stack: a stable sort has one
    result, so each lane's rows are those it gets alone. When a check
    fails, the lanes are checked one by one, so that the first failing lane
    raises its own error."""
    lanes = [(np.asarray(X, dtype=float), np.asarray(y)) for X, y in lanes]
    shapes = {}
    for i, (X, y) in enumerate(lanes):
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y) or len(y) < 2:
            return [_training_rows(X, y) for X, y in lanes]
        shapes.setdefault(X.shape, []).append(i)
    rows = [None] * len(lanes)
    for idx in shapes.values():
        X = np.stack([lanes[i][0] for i in idx])
        y = np.stack([lanes[i][1] for i in idx])
        slow, fast = y == 0, y == 1
        if not ((slow | fast).all() and slow.any(axis=1).all() and fast.any(axis=1).all()
                and np.isfinite(X).all()):
            return [_training_rows(X, y) for X, y in lanes]
        order = canonical_order(X, y)
        X = np.take_along_axis(X, order[..., None], axis=1)
        y = np.take_along_axis(y, order, axis=1).astype(int)
        for b, i in enumerate(idx):
            rows[i] = X[b], y[b]
    return rows


def _lane_cost(estimator):
    """Copies of a lane's padded rows that ``fit_many`` stacks at once: a
    forest's trees, a booster's deepest searched level, lr's one."""
    if isinstance(estimator, Booster):
        return 2 ** max(estimator.max_depth - 1, 0)
    return estimator.n_estimators if isinstance(estimator, RandomForest) else 1


def train_many(config, lanes) -> list:
    """One TrainedModel per lane, an (X, y) pair of training rows; lanes may
    differ in row count and in width. ``config`` is one ClassifierConfig for
    every lane or a sequence of them, one per lane, all of one kind.

    Each model is bit for bit the one ``train`` gives for its lane alone.
    dtc, rf, gb, xgb and lr fit each block of ``tree.lane_blocks`` in one
    ``fit_many`` call; the other kinds fit one lane after another.
    """
    configs = [config] * len(lanes) if isinstance(config, ClassifierConfig) else list(config)
    if len(configs) != len(lanes) or len({c.kind for c in configs}) > 1:
        raise ValueError("train_many needs one config per lane, all of one kind")
    rows = _training_lanes(lanes)
    estimators = [_build(c) for c in configs]
    if estimators and hasattr(estimators[0], "fit_many"):
        for block in lane_blocks(rows, _lane_cost(estimators[0])):
            estimators[0].fit_many([estimators[i] for i in block], [rows[i] for i in block])
    else:
        for est, (X, y) in zip(estimators, rows):
            est.fit(X, y)
    return [TrainedModel(c.kind, c, est, X.shape[1])
            for c, est, (X, _) in zip(configs, estimators, rows)]


def train(config: ClassifierConfig, X, y) -> TrainedModel:
    """The model of one lane of ``train_many``."""
    return train_many(config, [(X, y)])[0]


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
