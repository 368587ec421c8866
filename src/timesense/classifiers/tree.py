"""Array-backed decision trees grown by one lane-batched exact greedy split
search.

``sort_lanes`` and ``best_split`` search the nodes of many trees at once:
each node is a lane of a ``(B, n, f)`` stack. Two growers call them.
``grow_forest`` grows a set of CART trees (dtc, rf) in lockstep, one lane
per tree, each tree in depth-first order. ``grow_boosting_tree`` grows a
regression tree of gradient boosting (gb, xgb) level by level, one lane per
leaf of a level; the root of every round reuses one sort of the rows.
AdaBoost's stump (ab) is a one-lane call on one sort per fit. ``walk``
scores the rows of X with a whole stack of trees at once (Nakandala et al.,
OSDI 2020). All tie-breaks are deterministic (lowest feature index, then
lowest threshold).
"""

from functools import cached_property

import numpy as np

NO_CHILD = -1
# The stacked walk takes as many rows at a time as keep each of its
# (trees, rows) buffers within this many entries.
WALK_BLOCK = 1 << 14


class TreeNodes:
    """Flat node arrays of one tree, shape (m,), or of a stack of trees,
    shape (T, m) and padded with childless nodes. Internal nodes carry a
    value too."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.value = np.asarray(value, dtype=float)

    def arrays(self):
        return self.feature, self.threshold, self.left, self.right, self.value

    @classmethod
    def stack(cls, trees):
        """One (T, m) stack of single trees of m nodes each."""
        return cls(*(np.array(a) for a in zip(*(t.arrays() for t in trees))))

    @cached_property
    def depth(self):
        """Edges on the longest root-to-leaf path of a stack of trees."""
        tree = np.arange(len(self.feature))
        node = np.zeros_like(tree)
        depth = 0
        while True:
            internal = self.feature[tree, node] != NO_CHILD
            if not internal.any():
                return depth
            tree, node = tree[internal], node[internal]
            tree, node = (np.concatenate([tree, tree]),
                          np.concatenate([self.left[tree, node], self.right[tree, node]]))
            depth += 1


def walk(nodes, X):
    """Values of every tree of the stack ``nodes`` for the rows of X, of
    shape (n, d) or a stack (..., n, d): an array (T, ..., n).

    All trees descend together, one level per step, a block of rows at a
    time. Each row takes, in each tree, the path that the tree's own
    ``X[:, feature] <= threshold`` tests give it.
    """
    X = np.asarray(X, dtype=float)
    shape = X.shape[:-1]
    X = X.reshape(-1, X.shape[-1])
    n_trees, size = nodes.feature.shape
    leaf = nodes.feature == NO_CHILD
    # flat int32 node ids; a leaf is its own child, so rows that reach one stay
    own = np.arange(n_trees * size, dtype=np.int32).reshape(n_trees, size)
    feature = np.where(leaf, 0, nodes.feature).astype(np.int32).ravel()
    left = np.where(leaf, own, nodes.left + own[:, :1]).astype(np.int32).ravel()
    right = np.where(leaf, own, nodes.right + own[:, :1]).astype(np.int32).ravel()
    threshold = nodes.threshold.ravel()
    out = np.empty((n_trees, len(X)))
    block = max(1, WALK_BLOCK // n_trees)
    for start in range(0, len(X), block):
        rows = X[start:start + block]
        offsets = np.arange(0, rows.size, X.shape[1], dtype=np.int32)
        idx = np.repeat(own[:, :1], len(rows), axis=1)
        at, x, t, go_left = (np.empty(idx.shape, dtype)
                             for dtype in (np.int32, float, float, bool))
        for _ in range(nodes.depth):
            np.add(feature.take(idx, out=at), offsets, out=at)
            np.less_equal(rows.take(at, out=x), threshold.take(idx, out=t), out=go_left)
            left.take(idx, out=at)
            right.take(idx, out=idx)
            np.copyto(idx, at, where=go_left)
        out[:, start:start + len(rows)] = nodes.value.ravel().take(idx)
    return out.reshape((n_trees,) + shape)


def sort_lanes(X, mask):
    """The sort of an exact greedy split search (Chen & Guestrin 2016,
    Alg. 1) of B nodes at once, one per lane of ``X`` (B, n, f); lanes that
    search the same rows may share one (1, n, f) ``X``. The rows of lane b
    are those where ``mask[b]`` holds.

    Each column of each lane is sorted stably with the masked rows last.
    Cut i of a column sends its i smallest rows left: cut 0 sends every row
    right (threshold one below the smallest value); 0 < i < the lane's row
    count is a cut where the sorted values step up between rows i-1 and i,
    with the threshold at their midpoint.

    Returns ``(rows, xs, cuts, n_rows)`` for ``best_split``: the flat lane
    row of each sorted position (B, f, n), the sorted values (B, f, n), the
    cuts the values allow (B, f, n) and the lanes' row counts (B, 1, 1).
    """
    n_lanes, (n, f) = len(mask), X.shape[1:]
    # (B, f, n): each column of a lane is one contiguous run
    Xm = np.where(mask[:, None, :], X.transpose(0, 2, 1), np.inf)
    order = Xm.argsort(axis=2, kind="stable")
    xs = Xm.take(order + np.arange(0, Xm.size, n).reshape(n_lanes, f, 1))
    n_rows = mask.sum(axis=1)[:, None, None]
    cuts = np.empty(xs.shape, bool)
    cuts[..., 0] = True
    np.greater(xs[..., 1:], xs[..., :-1], out=cuts[..., 1:])
    cuts &= np.arange(n) < n_rows
    return order + np.arange(0, mask.size, n)[:, None, None], xs, cuts, n_rows


def best_split(lanes, stats, score):
    """The search over lanes sorted by ``sort_lanes``: ``stats`` (k, B, n)
    carries k statistics of each lane's rows and zeros on its other rows;
    they are summed cumulatively in sorted order.

    ``score(left, last, n_left, n_rows)`` gets the statistics left of every
    cut (k, B, f, n), the column totals summed in sorted order (k, B, f, 1),
    the cut positions (n,) and the lanes' row counts (B, 1, 1); it returns
    each cut's gain (B, f, n) and where the criterion allows the cut.

    Returns per lane ``(column, cut, threshold, gain)`` of the highest gain
    -- ties go to the lowest column, then the lowest threshold -- with gain
    -inf in a lane where no cut is allowed.
    """
    rows, xs, cuts, n_rows = lanes
    n_lanes, f, n = xs.shape
    ordered = stats.reshape(len(stats), -1).take(rows, axis=1)
    left = np.zeros_like(ordered)
    np.cumsum(ordered[..., :-1], axis=-1, out=left[..., 1:])
    gain, allowed = score(left, left[..., -1:] + ordered[..., -1:], np.arange(n), n_rows)
    gain = np.where(cuts & allowed, gain, -np.inf)
    # the first maximum in (column, cut) order: lowest column, then lowest
    # cut (thresholds rise along a column)
    best = gain.reshape(n_lanes, -1).argmax(axis=1)
    col, i = np.divmod(best, n)
    best += np.arange(0, gain.size, f * n)
    at = xs.take(best)
    thr = np.where(i > 0, 0.5 * (xs.take(best - 1) + at), at - 1.0)
    return col, i, thr, gain.take(best)


def _gini(a, b):
    """Gini impurity of class weights (a, b); 0 for an empty side."""
    n = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        pa, pb = a / n, b / n
    return np.where(n == 0, 0.0, 1.0 - (pa * pa + pb * pb))


def gini_score(total_w, total_fast):
    """``best_split`` score of CART: each cut's decrease in weighted Gini
    impurity, for lanes whose class weights sum to ``total_w`` (B,), of which
    ``total_fast`` is fast. Cuts that gain no more than 1e-12 are refused."""
    parent = _gini(total_w - total_fast, total_fast)[:, None, None]
    total_w = total_w[:, None, None]

    def score(left, last, n_left, n_rows):
        wl, l_fast = left
        wr, r_fast = total_w - wl, last[1] - l_fast
        child = wl * _gini(wl - l_fast, l_fast) + wr * _gini(wr - r_fast, r_fast)
        gain = parent - child / total_w
        return gain, (n_left > 0) & (gain > 1e-12)

    return score


def gradient_score(G, H, reg_lambda, min_child_weight, min_samples_leaf=1):
    """``best_split`` score of second-order boosting: the objective reduction
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)) for lanes with
    gradient and hessian totals ``G`` and ``H`` (B,). A cut must leave
    ``min_samples_leaf`` rows and ``min_child_weight`` hessian on each side
    and gain more than 1e-12."""

    def objective(g, h):
        # g * g / (h + reg_lambda + 1e-12), evaluated in place
        h = h + reg_lambda
        h += 1e-12
        out = g * g
        out /= h
        return out

    G, H = G[:, None, None], H[:, None, None]
    parent = objective(G, H)

    def score(left, last, n_left, n_rows):
        gl, hl = left
        hr = H - hl
        gain = objective(gl, hl)
        gain += objective(G - gl, hr)
        gain -= parent
        gain *= 0.5
        allowed = (n_left >= min_samples_leaf) & (n_rows - n_left >= min_samples_leaf)
        allowed = allowed & (np.minimum(hl, hr) >= min_child_weight)
        allowed &= gain > 1e-12
        return gain, allowed

    return score


def _stump_errors(left, last):
    """Weighted errors of "x > thr predicts fast" (+1) and of its reverse (-1)
    from the (fast, slow) weights left of each cut."""
    err_pos = left[0] + (last[1] - left[1])
    err_neg = left[1] + (last[0] - left[0])
    return err_pos, err_neg


def stump_split(lanes, ypm, w):
    """Depth-1 cut of least weighted 0/1 error for labels ``ypm`` in {-1, +1}
    over the rows that ``lanes``, one lane of ``sort_lanes``, sorted:
    (feature, threshold, polarity). Polarity +1 predicts fast right of the
    threshold; -1 wins a tie. Cut 0 predicts one class everywhere."""
    stats = np.array([np.where(ypm > 0, w, 0.0), np.where(ypm < 0, w, 0.0)])
    errors = []

    def score(left, last, n_left, n_rows):
        errors[:] = _stump_errors(left, last)
        return -np.minimum(*errors), True

    col, cut, thr, _ = best_split(lanes, stats[:, None], score)
    err_pos, err_neg = (e[0, col[0], cut[0]] for e in errors)
    return int(col[0]), thr[0], -1 if err_neg <= err_pos else 1


def grow_stump(X, lanes, ypm, w):
    """``stump_split`` of X's rows, sorted as ``lanes``, as a depth-1 tree
    whose leaves hold -1 or +1; returns the tree and the value of each row
    of X."""
    j, thr, polarity = stump_split(lanes, ypm, w)
    nodes = TreeNodes([j, NO_CHILD, NO_CHILD], [thr, 0.0, 0.0], [1, NO_CHILD, NO_CHILD],
                      [2, NO_CHILD, NO_CHILD], [0.0, -polarity, polarity])
    return nodes, np.where(X[:, j] <= thr, -polarity, polarity).astype(float)


def grow_forest(X, y, rows, max_depth=None, min_samples_leaf=1, max_features=None,
                feature_rngs=None):
    """CART trees with Gini impurity and best-split strategy, grown in
    lockstep; tree t is grown on the rows ``rows[t]`` of X (rows (T, n)).

    Each tree expands its nodes depth first, left child first. At each step
    every tree goes on to its next node that needs a split search, and one
    ``best_split`` call searches all of those nodes. When ``max_features``
    is below d, each searched node of tree t considers a random subset of
    that many features drawn from ``feature_rngs[t]`` (random-forest
    style). A best split that leaves fewer than ``min_samples_leaf`` rows on
    a side makes a leaf.

    Returns (TreeNodes stack, importances (T, d)), each tree's importance
    normalised to sum 1.
    """
    X = np.asarray(X, dtype=float)
    n_trees, n = rows.shape
    d = X.shape[1]
    max_depth = np.inf if max_depth is None else max_depth
    draw = max_features is not None and max_features < d
    Xt, yt = X[rows], np.asarray(y, dtype=int)[rows]
    size = 2 * n - 1
    feature = np.full((n_trees, size), NO_CHILD)
    threshold = np.zeros((n_trees, size))
    left = np.full((n_trees, size), NO_CHILD)
    right = np.full((n_trees, size), NO_CHILD)
    value = np.zeros((n_trees, size))
    importance = np.zeros((n_trees, d))
    count = [0] * n_trees
    # pending nodes of each tree: (rows mask, depth, parent of a right
    # child or NO_CHILD, row count, fast count)
    stacks = [[(np.ones(n, bool), 0, NO_CHILD, n, int(yt[t].sum()))] for t in range(n_trees)]
    while True:
        search = []
        for t, stack in enumerate(stacks):
            while stack:
                mask, depth, parent, rows_in, fast = stack.pop()
                node = count[t]
                count[t] += 1
                if parent != NO_CHILD:
                    right[t, parent] = node
                value[t, node] = (fast - (rows_in - fast)) / rows_in
                if rows_in >= 2 and depth < max_depth and 0 < fast < rows_in:
                    search.append((t, node, mask, depth, rows_in, fast))
                    break
        if not search:
            break
        trees, nodes, masks, depths, rows_in, fast = (np.array(c) for c in zip(*search))
        if draw:
            feats = np.array([np.sort(feature_rngs[t].choice(d, size=max_features, replace=False))
                              for t in trees])
        else:
            feats = np.broadcast_to(np.arange(d), (len(trees), d))
        lane_x = Xt[trees[:, None, None], np.arange(n)[:, None], feats[:, None, :]]
        lane_fast = masks & (yt[trees] == 1)
        col, _, thr, gain = best_split(
            sort_lanes(lane_x, masks), np.array([masks, lane_fast], dtype=float),
            gini_score(rows_in.astype(float), fast.astype(float)))
        j = feats[np.arange(len(trees)), col]
        go_left = Xt[trees, :, j] <= thr[:, None]
        to_left, to_right = masks & go_left, masks & ~go_left
        n_left, n_right = to_left.sum(axis=1), to_right.sum(axis=1)
        split = ((gain > -np.inf) & (n_left >= min_samples_leaf)
                 & (n_right >= min_samples_leaf))
        t, node = trees[split], nodes[split]
        importance[t, j[split]] += rows_in[split] / n * gain[split]
        feature[t, node] = j[split]
        threshold[t, node] = thr[split]
        left[t, node] = node + 1
        fast_left = (to_left & lane_fast).sum(axis=1)
        for s in np.flatnonzero(split):
            stack = stacks[trees[s]]
            depth = depths[s] + 1
            stack.append((to_right[s], depth, nodes[s], n_right[s], fast[s] - fast_left[s]))
            stack.append((to_left[s], depth, NO_CHILD, n_left[s], fast_left[s]))
    total = importance.sum(axis=1, keepdims=True)
    importance = np.divide(importance, total, out=importance, where=total > 0)
    size = max(count)
    return (TreeNodes(feature[:, :size], threshold[:, :size], left[:, :size],
                      right[:, :size], value[:, :size]), importance)


def grow_boosting_tree(X, root, grad, hess, split_hess, max_depth, reg_lambda,
                       min_child_weight):
    """Regression tree of one boosting round, grown level by level with one
    ``best_split`` call per level, whose lanes are the level's leaves: splits
    by ``gradient_score`` on (grad, split_hess), leaf values -G/(H+reg) on
    (grad, hess). ``root`` is ``sort_lanes`` of X's rows, which every round
    shares.

    Returns (TreeNodes of 2^(max_depth+1) - 1 nodes, padded with childless
    ones; summed split gain per feature; value of each training row's leaf).
    The gains are added in depth-first order.
    """
    n, d = X.shape
    sums = np.array([grad, hess, split_hess])
    feature, threshold, left, right, value, gain = [], [], [], [], [], []
    row_value = np.empty(n)
    level = [np.ones(n, bool)]
    for depth in range(max_depth + 1):
        base = len(value)
        nodes, masks, G, H = [], [], [], []
        for node, mask in enumerate(level, base):
            rows = sums.compress(mask, axis=1)
            # each row of a C-contiguous (3, rows) array sums as its own 1-D
            # sum would (np.sum rounds pairwise, so the layout matters)
            g, h, split_h = rows.sum(axis=1).tolist()
            value.append(-g / (h + reg_lambda + 1e-12))
            if depth < max_depth and rows.shape[1] >= 2:
                nodes.append(node)
                masks.append(mask)
                G.append(g)
                H.append(split_h)
            else:
                row_value[mask] = value[node]
        feature += [NO_CHILD] * len(level)
        threshold += [0.0] * len(level)
        left += [NO_CHILD] * len(level)
        right += [NO_CHILD] * len(level)
        gain += [0.0] * len(level)
        if not nodes:
            break
        masks = np.array(masks)
        lanes = root if depth == 0 else sort_lanes(X[None], masks)
        col, _, thr, best = best_split(
            lanes, np.where(masks, sums[::2, None], 0.0),
            gradient_score(np.array(G), np.array(H), reg_lambda, min_child_weight))
        level = []
        for node, mask, j, thr_node, gain_node in zip(nodes, masks, col.tolist(), thr.tolist(),
                                                     best.tolist()):
            if gain_node == -np.inf:
                row_value[mask] = value[node]
                continue
            go_left = X[:, j] <= thr_node
            feature[node], threshold[node], gain[node] = j, thr_node, gain_node
            left[node] = len(value) + len(level)
            right[node] = left[node] + 1
            level += [mask & go_left, mask & ~go_left]
        if not level:
            break
    importance = [0.0] * d
    stack = [0]
    while stack:  # depth first, left child first
        node = stack.pop()
        if feature[node] != NO_CHILD:
            importance[feature[node]] += gain[node]
            stack += [right[node], left[node]]
    pad = 2 ** (max_depth + 1) - 1 - len(value)
    return (TreeNodes(feature + [NO_CHILD] * pad, threshold + [0.0] * pad,
                      left + [NO_CHILD] * pad, right + [NO_CHILD] * pad, value + [0.0] * pad),
            np.array(importance), row_value)
