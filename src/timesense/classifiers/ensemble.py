"""Tree models in one layout: the CART decision tree, the bagged random
forest, second-order boosting (classic gradient boosting and its
L2-regularized XGBoost form) and AdaBoost (SAMME with stumps)."""

import numpy as np

from .linear import sigmoid
from .tree import (
    TreeNodes,
    feature_gains,
    grow_boosting_trees,
    grow_forest,
    sort_lanes,
    stump_split,
    walk,
)


def _normalized(imp, axis=None):
    """``imp`` scaled to sum 1 along ``axis``; a part that sums to 0 stays 0."""
    s = imp.sum(axis=axis, keepdims=True)
    return np.divide(imp, s, out=np.zeros_like(imp), where=s > 0)


class TreeEnsemble:
    """What every tree model stores: its trees as one padded ``TreeNodes``
    stack, one weight per tree, an offset added to the weighted sum of the
    trees' values, and ``importances_``, each tree's split gains per
    feature (T, d), which ``feature_gains`` sums at fit time.
    """

    def __init__(self):
        self.nodes_ = None
        self.weights_ = []
        self.offset_ = 0.0

    def decision_function(self, X):
        """offset + sum of weight * tree value, accumulated in tree order."""
        if self.nodes_ is None:
            return np.full(X.shape[:-1], self.offset_)
        values = walk(self.nodes_, X)
        terms = np.concatenate([np.full((1,) + values.shape[1:], self.offset_),
                                np.reshape(self.weights_, (-1,) + (1,) * (values.ndim - 1))
                                * values])
        return np.cumsum(terms, axis=0)[-1]

    def importance(self):
        """The trees' gains per feature, summed and normalised to sum 1."""
        return _normalized(self.importances_.sum(axis=0))


def _trimmed(nodes, start, stop):
    """Trees start..stop of a stack, cut to the nodes the largest of them
    uses, as arrays of their own: a model that kept views would keep its
    whole block's stack alive."""
    size = max(1, int(max(nodes.left[start:stop].max(), nodes.right[start:stop].max())) + 1)
    return TreeNodes(*(np.array(a) for a in nodes[start:stop, :size].arrays()))


class RandomForest(TreeEnsemble):
    """Bagged CART trees with sqrt(d) feature subsampling per node. The
    score is the trees' mean, so every weight is 1."""

    n_estimators = 100
    # each tree draws its rows (a bootstrap) and each node its features
    draws = True

    def __init__(self, seed):
        super().__init__()
        self.seed = seed

    @classmethod
    def lane_cost(cls, n, width):
        # the rows of a searched node gathered per tree
        return cls.n_estimators * n * width

    @staticmethod
    def fit_many(models, lanes):
        # every tree of every lane in one lockstep; tree t of a model draws
        # its bootstrap and feature subsets from default_rng([seed, t])
        X, y, first = lanes.X, lanes.y, models[0]
        n_trees = first.n_estimators
        lane = np.repeat(np.arange(len(models)), n_trees)
        weights = lanes.valid[lane].astype(int)
        rngs, max_features = [], None
        if first.draws:
            for b, (model, n) in enumerate(zip(models, lanes.counts.tolist())):
                tree_rngs = [np.random.default_rng([model.seed, t]) for t in range(n_trees)]
                boot = np.array([tree_rng.integers(0, n, size=n) for tree_rng in tree_rngs])
                # each tree's row weights: its draws of each row, counted on one sort
                drawn = np.sort(boot + n * np.arange(n_trees)[:, None], axis=None)
                draws = np.diff(drawn.searchsorted(np.arange(n_trees * n + 1))).reshape(-1, n)
                # a bootstrap of 0 or n fast draws lost a class; fall back to every row
                draws[np.isin(draws @ y[b, :n], (0, n))] = 1
                weights[b * n_trees:(b + 1) * n_trees, :n] = draws
                rngs += tree_rngs
            max_features = max(1, int(np.sqrt(X.shape[2])))
        nodes, gain = grow_forest(lanes, lane, weights, max_features=max_features,
                                  feature_rngs=rngs)
        importances = feature_gains(nodes, gain, X.shape[2])
        for b, model in enumerate(models):
            trees = slice(b * n_trees, (b + 1) * n_trees)
            model.nodes_ = _trimmed(nodes, trees.start, trees.stop)
            model.importances_ = importances[trees].copy()
            model.weights_ = [1.0] * n_trees

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
        # the mean of the trees' normalised importances, normalised
        return _normalized(_normalized(self.importances_, axis=1).mean(axis=0))


class DecisionTree(RandomForest):
    """A single CART tree (Gini impurity, best split): the forest's one-tree
    case, grown on every row with every feature and no draws."""

    n_estimators = 1
    draws = False
    # no seed: the tree draws nothing
    __init__ = TreeEnsemble.__init__

    # one tree's normalised gains, which the forest's mean would round again
    importance = TreeEnsemble.importance


class Booster(TreeEnsemble):
    """Stage-wise regression trees on the logistic loss's gradient and
    hessian; leaves are the Newton step -G/(H+reg_lambda), and each tree is
    added with weight ``learning_rate``. A subclass sets ``reg_lambda``,
    ``min_child_weight`` and ``second_order_splits``, which select between
    the two published forms.
    """

    n_estimators, learning_rate, max_depth = 100, 0.1, 3

    @classmethod
    def lane_cost(cls, n, width):
        # a copy of the lane's rows per node of the deepest searched level
        return 2 ** max(cls.max_depth - 1, 0) * n * width

    @staticmethod
    def fit_many(models, lanes):
        # all lanes advance round by round
        X, y, first = lanes.X, lanes.y, models[0]
        offsets = np.zeros(len(models))
        if not first.second_order_splits:
            # both classes are present, so 0 < p0 < 1
            p0 = (lanes.valid & (y == 1)).sum(axis=1) / lanes.counts
            offsets = np.log(p0 / (1 - p0))
        F = np.repeat(offsets[:, None], X.shape[1], axis=1)
        # gradients, the hessians splits use (ones for gb) and hessians
        sums = np.ones((len(models), 3, X.shape[1]))
        # every round's roots search all rows: sort them once
        root = sort_lanes(X, lanes.valid)
        # each round's trees and split gains, lane by lane: round r of lane
        # b is row b * rounds + r
        rounds = first.n_estimators
        stacked = TreeNodes.empty((len(models) * rounds, 2 ** (first.max_depth + 1) - 1))
        gain = np.zeros(stacked.value.shape)
        for r in range(rounds):
            p = sigmoid(F)
            sums[:, 0] = p - y
            sums[:, 2] = np.maximum(p * (1 - p), 1e-12)
            if first.second_order_splits:
                sums[:, 1] = sums[:, 2]
            F = F + first.learning_rate * grow_boosting_trees(
                lanes, root, sums, first, stacked[r::rounds], gain[r::rounds])
        gains = feature_gains(stacked, gain, X.shape[2])
        for b, model in enumerate(models):
            trees = slice(b * rounds, (b + 1) * rounds)
            model.offset_ = float(offsets[b])
            model.nodes_ = _trimmed(stacked, trees.start, trees.stop)
            model.importances_ = gains[trees].copy()
            model.weights_ = [first.learning_rate] * rounds


class GradientBoosting(Booster):
    """Friedman's gradient boosting (gb): it starts from the log-odds of the
    training prior and splits on unit hessians, i.e. by squared error
    against the residual."""

    reg_lambda, min_child_weight, second_order_splits = 0.0, 1e-6, False


class XGBoost(Booster):
    """XGBoost (xgb; Chen & Guestrin 2016): it starts from 0 (probability
    0.5) and splits on the true hessians, where ``reg_lambda`` and
    ``min_child_weight`` regularize."""

    reg_lambda, min_child_weight, second_order_splits = 1.0, 1e-3, True


class AdaBoost(TreeEnsemble):
    """Discrete AdaBoost (SAMME) over depth-1 stumps; a stump's weight is its
    alpha, which is also the gain of its root.

    Training halts when a stump's weighted error reaches 0.5 (no better than
    chance) or 0 (perfect).
    """

    n_estimators = 50

    @staticmethod
    def lane_cost(n, width):
        # the sort of the lane's rows
        return n * width

    @staticmethod
    def fit_many(models, lanes):
        # all lanes advance stump by stump on one sort of their rows until
        # they halt. Stump k of lane b is tree b * rounds + k: a root on its
        # feature, its alpha the root's gain, and leaves -1 and +1 by polarity
        X, rounds = lanes.X, models[0].n_estimators
        stumps = TreeNodes.empty((len(models) * rounds, 3))
        gain, n_kept = np.zeros(stumps.value.shape), np.zeros(len(models), dtype=int)
        ypm = np.where(lanes.y == 1, 1.0, -1.0)
        w = np.where(lanes.valid, 1.0 / lanes.counts[:, None], 0.0)
        live, part, search = np.arange(len(models)), lanes, sort_lanes(X, lanes.valid)
        for k in range(rounds):
            j, thr, polarity = stump_split(search, ypm, w)
            pred = np.where(X[live, :, j] <= thr[:, None], -1.0, 1.0) * polarity[:, None]
            wl, yl = w[live], ypm[live]
            err = part.masked_sums(wl, part.valid & (pred != yl))
            kept, going = err < 0.5, (err < 0.5) & (err > 1e-12)
            # a perfect stump takes the alpha of an error of 1e-12
            alpha = np.full(len(live), np.log((1 - 1e-12) / 1e-12) / 2)
            alpha[going] = 0.5 * np.log((1 - err[going]) / err[going])
            at = live[kept] * rounds + k
            stumps.feature[at, 0], stumps.threshold[at, 0] = j[kept], thr[kept]
            stumps.left[at, 0], stumps.right[at, 0] = 1, 2
            stumps.value[at, 1], stumps.value[at, 2] = -polarity[kept], polarity[kept]
            gain[at, 0] = alpha[kept]
            n_kept[live[kept]] += 1
            if not going.all():
                live, part = live[going], part[going]
                search = tuple(a[going] for a in search)
                if not len(live):
                    break
            wl = wl[going] * np.exp(-alpha[going][:, None] * yl[going] * pred[going])
            w[live] = wl / part.sums(wl)[:, None]
        for b, model in enumerate(models):
            trees = slice(b * rounds, b * rounds + n_kept[b])
            model.weights_ = gain[trees, 0].tolist()
            if model.weights_:
                model.nodes_ = _trimmed(stumps, trees.start, trees.stop)
            # the vector ends at the highest feature a kept stump uses:
            # trailing zeros would change how the normalising sum groups its
            # additions
            width = int(stumps.feature[trees, 0].max(initial=-1)) + 1
            model.importances_ = feature_gains(stumps[trees], gain[trees], width)
