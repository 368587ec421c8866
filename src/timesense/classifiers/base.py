"""Uniform train / predict / importance interface over the eleven kinds."""

from dataclasses import dataclass

import numpy as np

from ..errors import (InsufficientData, InvalidInput, Unsupported, check_integer, check_labels,
                      finite_array, float_array)
from .ensemble import AdaBoost, DecisionTree, GradientBoosting, RandomForest, XGBoost
from .knn import KNN
from .lanes import Lanes
from .linear import LDA, QDA, GaussianNB, LogisticRegressionNewton
from .svm import SMOSVC

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
        check_integer("seed", self.seed)

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


def _stacks(lanes):
    """The training rows of every lane in canonical order, as one ``(index,
    Lanes)`` per width: lane b of the ``Lanes`` is lane ``index[b]`` of the
    call. Padding rows of +inf and label 1 sort after a lane's own rows, so
    a stable sort leaves each lane the rows it gets alone. Raises the first
    check that a lane fails, in this order: shapes agree, a feature column,
    2 rows, labels of 0 or 1, both classes, finite rows."""
    lanes = [(float_array("X", X), np.asarray(y)) for X, y in lanes]
    widths = {}
    for i, (X, y) in enumerate(lanes):
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise InvalidInput("X and y shapes disagree")
        if X.shape[1] == 0:
            raise InvalidInput("X must have at least one feature column")
        if len(y) < 2:
            raise InsufficientData("need at least 2 training rows")
        widths.setdefault(X.shape[1], []).append(i)
    stacks = []
    for width, index in widths.items():
        index = sorted(index, key=lambda i: len(lanes[i][1]))
        counts = np.array([len(lanes[i][1]) for i in index])
        X = np.full((len(index), counts[-1], width), np.inf)
        y = np.ones(X.shape[:2], dtype=int)
        valid = Lanes(X, y, counts).valid
        y[valid] = check_labels("training labels", np.concatenate([lanes[i][1] for i in index]))
        n_slow = (y == 0).sum(axis=1)
        if not ((0 < n_slow).all() and (n_slow < counts).all()):
            raise InsufficientData("training data must contain both classes")
        X[valid] = finite_array("training data", np.concatenate([lanes[i][0] for i in index]))
        order = canonical_order(X, y)
        stacks.append((index, Lanes(np.take_along_axis(X, order[..., None], axis=1),
                                    np.take_along_axis(y, order, axis=1), counts)))
    return stacks


def _training_lanes(lanes):
    """``_stacks`` of the call; when it refuses, each lane is checked alone
    in call order, so the first bad lane raises the error ``train`` gives
    for it, with no stacked error as its context."""
    try:
        return _stacks(lanes)
    except (InvalidInput, InsufficientData) as exc:
        refused = exc
    for lane in lanes:
        _stacks([lane])
    raise refused


def trained_lanes(config, lanes):
    """Yields ``(i, TrainedModel)`` for lane i of ``lanes``, an (X, y) pair
    of training rows, a block's models as soon as its fit ends; lanes may
    differ in row count and in width. ``config`` is one ClassifierConfig for
    every lane or a sequence of them, one per lane, all of one kind.

    Each model is bit for bit the one ``train`` gives for its lane alone.
    Every kind fits each of ``Lanes.blocks`` of a width's ``Lanes`` in one
    ``fit_many(models, lanes)`` call: it fits ``models[b]``, which differ at
    most in rf's seed, on lane b. Each estimator states the ``lane_cost(n,
    width)`` that sizes the blocks, and takes these checked float64 rows
    and int labels, in canonical order, as given. The generator holds no
    model of a block after it yields the next block's first, so a caller
    that lets each model go keeps about one block of models alive.
    """
    configs = [config] * len(lanes) if isinstance(config, ClassifierConfig) else list(config)
    if len(configs) != len(lanes) or len({c.kind for c in configs}) > 1:
        raise InvalidInput("train_many needs one config per lane, all of one kind")
    for index, stack in _training_lanes(lanes):
        width = stack.X.shape[2]
        estimator = _ESTIMATORS[configs[index[0]].kind]
        for block, part in stack.blocks(estimator.lane_cost):
            ids = index[block]
            fits = [_build(configs[i]) for i in ids]
            fits[0].fit_many(fits, part)
            for i, est in zip(ids, fits):
                yield i, TrainedModel(configs[i].kind, configs[i], est, width)


def train_many(config, lanes) -> list:
    """One TrainedModel per lane: the models ``trained_lanes`` yields, in
    lane order."""
    models = [None] * len(lanes)
    for i, model in trained_lanes(config, lanes):
        models[i] = model
    return models


def train(config: ClassifierConfig, X, y) -> TrainedModel:
    """The model of one lane of ``train_many``."""
    return train_many(config, [(X, y)])[0]


def decision_scores(model: TrainedModel, X) -> np.ndarray:
    """Real-valued scores, monotone in fast-class confidence (0 = tie), of
    the rows of X (n, d) or of a stack of blocks of rows (..., n, d): an
    array of shape ``X.shape[:-1]``.

    A stack is scored in one call, and each block's scores are bit for bit
    those a call on that block alone returns: BLAS products and numpy
    reductions can round a row differently in a taller matrix. Estimators
    score the checked float64 X as given.
    """
    X = finite_array("X", X)
    if X.ndim < 2 or X.shape[-1] != model.feature_count:
        raise InvalidInput(
            f"expected {model.feature_count} features along the last axis of X, got {X.shape}")
    return np.asarray(model.estimator.decision_function(X), dtype=float)


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
