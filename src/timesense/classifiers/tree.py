"""Array-backed decision trees grown by one exact greedy split search.

``best_split`` scores every cut of every feature of a node at once; the
criteria below turn it into CART's Gini split (dtc, rf), the second-order
split of gradient boosting (gb, xgb) and AdaBoost's weighted 0/1-error stump
(ab). All tie-breaks are deterministic (lowest feature index, then lowest
threshold)."""

import numpy as np

NO_CHILD = -1


class TreeNodes:
    """Flat node storage; predict is vectorized level by level."""

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []  # leaf decision value; internal nodes carry one too

    def add(self, feature=NO_CHILD, threshold=0.0, value=0.0):
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(NO_CHILD)
        self.right.append(NO_CHILD)
        self.value.append(value)
        return len(self.feature) - 1

    def finalize(self):
        self.feature = np.asarray(self.feature, dtype=int)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=int)
        self.right = np.asarray(self.right, dtype=int)
        self.value = np.asarray(self.value, dtype=float)
        return self

    def predict(self, X):
        """Values of the rows of X, of shape (n, d) or a stack (..., n, d)."""
        X = np.asarray(X, dtype=float)
        shape = X.shape[:-1]
        X = X.reshape(-1, X.shape[-1])
        idx = np.zeros(len(X), dtype=int)
        while True:
            internal = self.feature[idx] != NO_CHILD
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            node = idx[rows]
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            idx[rows] = np.where(go_left, self.left[node], self.right[node])
        return self.value[idx].reshape(shape)


def best_split(X, stats, score):
    """Exact greedy split search (Chen & Guestrin 2016, Alg. 1) over the
    columns of ``X`` (n rows).

    Each column is sorted stably and the per-row ``stats`` (n, k) are summed
    cumulatively in that order. Cut i of a column sends its i smallest rows
    left: cut 0 sends every row right (threshold one below the smallest
    value); cut i > 0 exists where the sorted values step up between rows
    i-1 and i, with the threshold at their midpoint.

    ``score(left, last, n_left)`` gets the statistics left of every cut
    (n, f, k), the column totals summed in sorted order (f, k) and the cut
    positions (n, 1); it returns each cut's gain (n, f), -inf where the cut
    is not allowed.

    Returns ``(column, threshold, gain, left, last)`` of the highest gain --
    ties go to the lowest column, then the lowest threshold -- or None when
    no cut is allowed.
    """
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    cum = np.cumsum(stats[order], axis=0)
    left = np.concatenate([np.zeros_like(cum[:1]), cum[:-1]])
    gain = score(left, cum[-1], np.arange(len(X))[:, None])
    steps = np.concatenate([np.ones((1, X.shape[1]), bool), xs[1:] > xs[:-1]])
    gain = np.where(steps, gain, -np.inf)
    # argmax over the transpose returns the first maximum in column-major
    # order: lowest column, then lowest cut (thresholds rise along a column).
    col, i = np.unravel_index(np.argmax(gain.T), gain.T.shape)
    if gain[i, col] == -np.inf:
        return None
    thr = 0.5 * (xs[i - 1, col] + xs[i, col]) if i > 0 else xs[0, col] - 1.0
    return col, thr, gain[i, col], left[i, col], cum[-1, col]


def _gini(a, b):
    """Gini impurity of class weights (a, b); 0 for an empty side."""
    n = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        pa, pb = a / n, b / n
    return np.where(n == 0, 0.0, 1.0 - (pa * pa + pb * pb))


def gini_split(X, y, w, features):
    """Best weighted-Gini cut over ``features``: (feature, threshold, gain),
    or None when no cut gains more than 1e-12."""
    total_w = w.sum()
    wy = w * y
    parent = _gini(total_w - wy.sum(), wy.sum())

    def score(left, last, n_left):
        wl, l_fast = left[..., 0], left[..., 1]
        wr, r_fast = total_w - wl, last[..., 1] - l_fast
        child = wl * _gini(wl - l_fast, l_fast) + wr * _gini(wr - r_fast, r_fast)
        gain = parent - child / total_w
        return np.where((n_left > 0) & (gain > 1e-12), gain, -np.inf)

    best = best_split(X[:, features], np.column_stack([w, wy]), score)
    if best is None:
        return None
    col, thr, gain, _, _ = best
    return features[col], thr, gain


def gradient_split(X, grad, hess, reg_lambda, min_child_weight, min_samples_leaf=1):
    """Best cut by the second-order objective reduction
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)) among the cuts that
    leave ``min_samples_leaf`` rows and ``min_child_weight`` hessian on
    each side: (feature, threshold, gain), or None when none gains more than
    1e-12."""
    n = len(grad)
    G, H = grad.sum(), hess.sum()

    def objective(g, h):
        return g * g / (h + reg_lambda + 1e-12)

    parent = objective(G, H)

    def score(left, last, n_left):
        gl, hl = left[..., 0], left[..., 1]
        hr = H - hl
        gain = 0.5 * (objective(gl, hl) + objective(G - gl, hr) - parent)
        allowed = ((n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
                   & (hl >= min_child_weight) & (hr >= min_child_weight) & (gain > 1e-12))
        return np.where(allowed, gain, -np.inf)

    best = best_split(X, np.column_stack([grad, hess]), score)
    return None if best is None else best[:3]


def _stump_errors(left, last):
    """Weighted errors of "x > thr predicts fast" (+1) and of its reverse (-1)
    from the (fast, slow) weights left of each cut."""
    err_pos = left[..., 0] + (last[..., 1] - left[..., 1])
    err_neg = left[..., 1] + (last[..., 0] - left[..., 0])
    return err_pos, err_neg


def stump_split(X, ypm, w):
    """Depth-1 cut of least weighted 0/1 error for labels ``ypm`` in {-1, +1}:
    (feature, threshold, polarity). Polarity +1 predicts fast right of the
    threshold; -1 wins a tie. Cut 0 predicts one class everywhere."""
    stats = np.column_stack([np.where(ypm > 0, w, 0.0), np.where(ypm < 0, w, 0.0)])
    j, thr, _, left, last = best_split(
        X, stats, lambda left, last, n_left: -np.minimum(*_stump_errors(left, last)))
    err_pos, err_neg = _stump_errors(left, last)
    return j, thr, -1 if err_neg <= err_pos else 1


def grow_classification_tree(X, y, max_depth=None, min_samples_leaf=1, max_features=None,
                             feature_rng=None):
    """CART with Gini impurity and best-split strategy; returns
    (TreeNodes, importance normalised to sum 1).

    When ``feature_rng`` is set, each node considers a random subset of
    ``max_features`` features (random-forest style). A best split that
    leaves fewer than ``min_samples_leaf`` rows on a side makes a leaf.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n, d = X.shape
    nodes = TreeNodes()
    importance = np.zeros(d)

    def grow(X, y, depth):
        fast = float(y.sum())
        node = nodes.add(value=(fast - (len(y) - fast)) / len(y))
        if (len(y) < 2
                or (max_depth is not None and depth >= max_depth)
                or len(np.unique(y)) < 2):
            return node
        if feature_rng is not None and max_features < d:
            feats = np.sort(feature_rng.choice(d, size=max_features, replace=False))
        else:
            feats = np.arange(d)
        best = gini_split(X, y, np.ones(len(y)), feats)
        if best is None:
            return node
        j, thr, gain = best
        mask = X[:, j] <= thr
        if mask.sum() < min_samples_leaf or (~mask).sum() < min_samples_leaf:
            return node
        importance[j] += len(y) / n * gain
        nodes.feature[node] = j
        nodes.threshold[node] = thr
        nodes.left[node] = grow(X[mask], y[mask], depth + 1)
        nodes.right[node] = grow(X[~mask], y[~mask], depth + 1)
        return node

    grow(X, y, 0)
    s = importance.sum()
    return nodes.finalize(), importance / s if s > 0 else importance


def grow_gradient_tree(X, grad, hess, leaf_grad, leaf_hess, max_depth, reg_lambda,
                       min_child_weight):
    """Regression tree for boosting: splits by ``gradient_split`` on
    (grad, hess), leaf values -G/(H+reg) on (leaf_grad, leaf_hess). Returns
    (TreeNodes, summed split gain per feature)."""
    nodes = TreeNodes()
    importance = np.zeros(X.shape[1])

    def grow(idx, depth):
        g, h = leaf_grad[idx].sum(), leaf_hess[idx].sum()
        node = nodes.add(value=-g / (h + reg_lambda + 1e-12))
        if depth >= max_depth or len(idx) < 2:
            return node
        best = gradient_split(X[idx], grad[idx], hess[idx], reg_lambda, min_child_weight)
        if best is None:
            return node
        j, thr, gain = best
        importance[j] += gain
        mask = X[idx, j] <= thr
        nodes.feature[node] = j
        nodes.threshold[node] = thr
        nodes.left[node] = grow(idx[mask], depth + 1)
        nodes.right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(len(grad)), 0)
    return nodes.finalize(), importance


def grow_stump(X, ypm, w):
    """``stump_split`` as a depth-1 tree whose leaves hold -1 or +1."""
    j, thr, polarity = stump_split(X, ypm, w)
    nodes = TreeNodes()
    nodes.add(feature=j, threshold=thr)
    nodes.left[0] = nodes.add(value=-polarity)
    nodes.right[0] = nodes.add(value=polarity)
    return nodes.finalize()
