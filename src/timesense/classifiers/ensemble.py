"""Tree models in one layout: the CART decision tree, the bagged random
forest, second-order boosting (classic gradient boosting and its
L2-regularized XGBoost form) and AdaBoost (SAMME with stumps)."""

import numpy as np

from .linear import sigmoid
from .tree import TreeNodes, grow_boosting_tree, grow_forest, grow_stump, sort_lanes, walk


def _normalized(imp):
    s = imp.sum()
    return imp / s if s > 0 else imp


class TreeEnsemble:
    """What every tree model stores: its trees as one padded ``TreeNodes``
    stack, one importance vector and one weight per tree, and an offset
    added to the weighted sum of the trees' values."""

    def __init__(self):
        self.nodes_ = None
        self.importances_ = []
        self.weights_ = []
        self.offset_ = 0.0

    @property
    def trees_(self):
        """The trees one by one, each padded as in the stack."""
        return [] if self.nodes_ is None else self.nodes_.unstack()

    def _weighted_sum(self, X):
        """offset + sum of weight * tree value, accumulated in tree order."""
        if self.nodes_ is None:
            return np.full(np.shape(X)[:-1], self.offset_)
        values = walk(self.nodes_, X)
        terms = np.concatenate([np.full((1,) + values.shape[1:], self.offset_),
                                np.reshape(self.weights_, (-1,) + (1,) * (values.ndim - 1))
                                * values])
        return np.cumsum(terms, axis=0)[-1]


class DecisionTree(TreeEnsemble):
    """A single CART tree (Gini impurity, best split)."""

    def __init__(self, max_depth=None, min_samples_leaf=1):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def fit(self, X, y, rng=None):
        self.nodes_, importances = grow_forest(
            X, y, np.arange(len(y))[None], max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf)
        self.importances_, self.weights_ = list(importances), [1.0]
        return self

    def decision_function(self, X):
        return walk(self.nodes_, X)[0]

    def importance(self):
        return self.importances_[0]


class RandomForest(TreeEnsemble):
    """Bagged CART trees with sqrt(d) feature subsampling per node. The
    score is the trees' mean, so every weight is 1."""

    def __init__(self, n_estimators=100, max_depth=None, min_samples_leaf=1, seed=0):
        super().__init__()
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed

    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n, d = X.shape
        rngs = [np.random.default_rng([self.seed, t]) for t in range(self.n_estimators)]
        rows = np.array([tree_rng.integers(0, n, size=n) for tree_rng in rngs])
        # bootstrap can lose a class; fall back to the full sample
        boot_y = y[rows]
        rows[boot_y.min(axis=1) == boot_y.max(axis=1)] = np.arange(n)
        self.nodes_, importances = grow_forest(
            X, y, rows, max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf,
            max_features=max(1, int(np.sqrt(d))), feature_rngs=rngs)
        self.importances_, self.weights_ = list(importances), [1.0] * self.n_estimators
        return self

    def decision_function(self, X):
        # np.mean, not a sum of 1/T-weighted trees, which rounds differently
        values = walk(self.nodes_, X)
        if values.shape[-1] == 1:
            # numpy sums the trees of a one-row call pairwise, as one
            # contiguous run, and those of a taller call in tree order; a
            # stack of one-row blocks keeps the one-row rounding
            return np.ascontiguousarray(np.moveaxis(values, 0, -1)).mean(axis=-1)
        return values.mean(axis=0)

    def importance(self):
        return _normalized(np.mean(self.importances_, axis=0))


class Booster(TreeEnsemble):
    """Stage-wise regression trees on the logistic loss's gradient and
    hessian; leaves are the Newton step -G/(H+reg_lambda), and each tree is
    added with weight ``learning_rate``.

    ``second_order_splits`` selects between the two published forms. False
    is Friedman's gradient boosting (gb): it starts from the log-odds of the
    training prior and splits on unit hessians, i.e. by squared error
    against the residual. True is XGBoost (xgb): it starts from 0
    (probability 0.5) and splits on the true hessians, where
    ``reg_lambda`` and ``min_child_weight`` regularize.
    """

    def __init__(self, n_estimators=100, learning_rate=0.1, max_depth=3, reg_lambda=1.0,
                 min_child_weight=1e-3, second_order_splits=True):
        super().__init__()
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.second_order_splits = second_order_splits

    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if not self.second_order_splits:
            p0 = np.clip(y.mean(), 1e-12, 1 - 1e-12)
            self.offset_ = float(np.log(p0 / (1 - p0)))
        F = np.full(len(y), self.offset_)
        trees = []
        unit = np.ones(len(y))
        # every round's root searches all rows: sort them once
        root = sort_lanes(X[None], np.ones((1, len(y)), bool))
        for _ in range(self.n_estimators):
            p = sigmoid(F)
            grad = p - y
            hess = np.maximum(p * (1 - p), 1e-12)
            split_hess = hess if self.second_order_splits else unit
            nodes, gain, row_value = grow_boosting_tree(
                X, root, grad, hess, split_hess, self.max_depth, self.reg_lambda,
                self.min_child_weight)
            F = F + self.learning_rate * row_value
            trees.append(nodes)
            self.importances_.append(gain)
            self.weights_.append(self.learning_rate)
        self.nodes_ = TreeNodes.stack(trees)
        return self

    def decision_function(self, X):
        return self._weighted_sum(X)

    def importance(self):
        return _normalized(np.sum(self.importances_, axis=0))


class AdaBoost(TreeEnsemble):
    """Discrete AdaBoost (SAMME) over depth-1 stumps; a stump's importance
    marks its feature and its weight is its alpha.

    Training halts when a stump's weighted error reaches 0.5 (no better than
    chance) or 0 (perfect).
    """

    def __init__(self, n_estimators=50):
        super().__init__()
        self.n_estimators = n_estimators

    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=float)
        ypm = np.where(np.asarray(y) == 1, 1.0, -1.0)
        n, d = X.shape
        w = np.full(n, 1.0 / n)
        stumps = []
        lanes = sort_lanes(X[None], np.ones((1, n), bool))
        for _ in range(self.n_estimators):
            stump, pred = grow_stump(X, lanes, ypm, w)
            err = float(np.sum(w[pred != ypm]))
            if err >= 0.5:
                break
            stumps.append(stump)
            marks = np.zeros(d)
            marks[stump.feature[0]] = 1.0
            self.importances_.append(marks)
            if err <= 1e-12:
                self.weights_.append(np.log((1 - 1e-12) / 1e-12) / 2)
                break
            alpha = 0.5 * np.log((1 - err) / err)
            self.weights_.append(alpha)
            w = w * np.exp(-alpha * ypm * pred)
            w = w / w.sum()
        if stumps:
            self.nodes_ = TreeNodes.stack(stumps)
        return self

    def decision_function(self, X):
        return self._weighted_sum(X)

    def importance(self):
        if not self.weights_:
            # no stump kept: every feature weighs 0
            return np.zeros(0)
        imp = np.sum([a * m for a, m in zip(self.weights_, self.importances_)], axis=0)
        # Cut after the highest feature a stump uses: trailing zeros would
        # change how the normalising sum groups its additions.
        return _normalized(imp[:self.nodes_.feature[:, 0].max() + 1])
