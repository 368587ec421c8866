"""Array-backed decision trees grown by one lane-batched exact greedy split
search.

``sort_lanes`` and ``best_split`` search the nodes of many trees at once:
each node is a lane of a ``(B, n, f)`` stack. Two growers call them, and
each serves one block of fits at once: one of ``Lanes.blocks``.
``grow_forest`` grows a set of CART trees (dtc, rf) in lockstep, each on
row weights of its lane, depth first. ``grow_boosting_trees`` grows one
round's regression tree of each of many gradient boosting fits (gb, xgb)
level by level, one lane per leaf of a level, into preorder slots; the roots
of every round reuse one sort of the rows. AdaBoost (ab) searches the
stumps of every lane of a block on one sort, a step at a time
(``stump_split``). ``TreeNodes.empty`` allocates every
stack; the growers record each split's gain at its node, which
``feature_gains`` sums per feature. ``walk`` scores the rows of X with a
whole stack of trees at once (Nakandala et al., OSDI 2020). All tie-breaks
are deterministic (lowest feature index, then lowest threshold).
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

    @classmethod
    def empty(cls, shape):
        """A stack of childless nodes of threshold and value 0, for a grower
        to fill in place."""
        return cls(np.full(shape, NO_CHILD), np.zeros(shape), np.full(shape, NO_CHILD),
                   np.full(shape, NO_CHILD), np.zeros(shape))

    def arrays(self):
        return self.feature, self.threshold, self.left, self.right, self.value

    def __getitem__(self, key):
        """The nodes ``key`` selects of every array, e.g. a range of trees."""
        return TreeNodes(*(a[key] for a in self.arrays()))

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
    right; 0 < i < the lane's row count is a cut where the sorted values
    step up between rows i-1 and i.

    Returns ``(rows, xs, cuts)`` for ``best_split``: the flat lane row of
    each sorted position (B, f, n), the sorted values (B, f, n) and the cuts
    the values allow (B, f, n).
    """
    n_lanes, (n, f) = len(mask), X.shape[1:]
    # (B, f, n): each column of a lane is one contiguous run
    Xm = np.where(mask[:, None, :], X.transpose(0, 2, 1), np.inf)
    order = Xm.argsort(axis=2, kind="stable")
    xs = Xm.take(order + np.arange(0, Xm.size, n).reshape(n_lanes, f, 1))
    cuts = np.empty(xs.shape, bool)
    cuts[..., 0] = True
    np.greater(xs[..., 1:], xs[..., :-1], out=cuts[..., 1:])
    cuts &= np.arange(n) < mask.sum(axis=1)[:, None, None]
    return order + np.arange(0, mask.size, n)[:, None, None], xs, cuts


def best_split(lanes, stats, score):
    """The search over lanes sorted by ``sort_lanes``: ``stats`` (k, B, n)
    carries k statistics of each lane's rows and zeros on its other rows;
    they are summed cumulatively in sorted order.

    ``score(left, last, n_left)`` gets the statistics left of every cut
    (k, B, f, n), the column totals summed in sorted order (k, B, f, 1) and
    the cut positions (n,); it returns each cut's gain (B, f, n) and where
    the criterion allows the cut.

    Returns per lane ``(column, cut, threshold, gain, left)`` of the highest
    gain, with gain -inf in a lane where no cut is allowed and ``left`` (k,
    B) the statistics summed left of the cut. Ties of gains equal bit for
    bit go to the lowest column, then the lowest threshold; gains equal in
    exact arithmetic can differ in their last bits, as each column sums in
    its own order. ``X[:, column] <= threshold`` holds for exactly the rows
    left of the cut: the threshold is the midpoint of the values either
    side, or the lower one where the midpoint rounds onto the upper one or
    overflows; at cut 0, one below the smallest value, or the next float
    down where that rounds back onto it.
    """
    rows, xs, cuts = lanes
    n_lanes, f, n = xs.shape
    ordered = stats.reshape(len(stats), -1).take(rows, axis=1)
    left = np.zeros_like(ordered)
    np.cumsum(ordered[..., :-1], axis=-1, out=left[..., 1:])
    gain, allowed = score(left, left[..., -1:] + ordered[..., -1:], np.arange(n))
    gain = np.where(cuts & allowed, gain, -np.inf)
    # the first maximum in (column, cut) order: lowest column, then lowest
    # cut (thresholds rise along a column)
    best = gain.reshape(n_lanes, -1).argmax(axis=1)
    col, i = np.divmod(best, n)
    best += np.arange(0, gain.size, f * n)
    at = xs.take(best)
    below = xs.take(best - 1)
    with np.errstate(over="ignore"):
        mid = 0.5 * (below + at)
    thr = np.where(i > 0, np.where((below <= mid) & (mid < at), mid, below),
                   np.minimum(at - 1.0, np.nextafter(at, -np.inf)))
    return col, i, thr, gain.take(best), left.reshape(len(stats), -1).take(best, axis=1)


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

    def score(left, last, n_left):
        wl, l_fast = left
        wr, r_fast = total_w - wl, last[1] - l_fast
        child = wl * _gini(wl - l_fast, l_fast) + wr * _gini(wr - r_fast, r_fast)
        gain = parent - child / total_w
        return gain, (n_left > 0) & (gain > 1e-12)

    return score


def gradient_score(G, H, reg_lambda, min_child_weight):
    """``best_split`` score of second-order boosting: the objective reduction
    0.5 * (GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)) for lanes with
    gradient and hessian totals ``G`` and ``H`` (B,), from the first two
    statistics. A cut must leave a row and ``min_child_weight`` hessian on
    each side and gain more than 1e-12."""

    def objective(g, h):
        # g * g / (h + reg_lambda + 1e-12), evaluated in place
        h = h + reg_lambda
        h += 1e-12
        out = g * g
        out /= h
        return out

    G, H = G[:, None, None], H[:, None, None]
    parent = objective(G, H)

    def score(left, last, n_left):
        gl, hl = left[:2]
        hr = H - hl
        gain = objective(gl, hl)
        gain += objective(G - gl, hr)
        gain -= parent
        gain *= 0.5
        # cuts leave a row on the right; cut 0 leaves none on the left
        allowed = (n_left > 0) & (np.minimum(hl, hr) >= min_child_weight)
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
    """Per lane of ``lanes`` (lanes of one ``sort_lanes`` call, or a
    selection of them), the depth-1 cut of least weighted 0/1 error for
    labels ``ypm`` in {-1, +1} and weights ``w``, 0 off a lane's rows, both
    (B, n) over that call's lanes: arrays (feature, threshold, polarity).
    Polarity +1 predicts fast right of the threshold; -1 wins a tie. Cut 0
    predicts one class everywhere."""
    stats = np.array([np.where(ypm > 0, w, 0.0), np.where(ypm < 0, w, 0.0)])
    errors = []

    def score(left, last, n_left):
        errors[:] = _stump_errors(left, last)
        return -np.minimum(*errors), True

    col, cut, thr, _, _ = best_split(lanes, stats, score)
    at = np.arange(len(col)), col, cut
    err_pos, err_neg = (e[at] for e in errors)
    return col, thr, np.where(err_neg <= err_pos, -1, 1)


def grow_forest(lanes, lane, weights, max_features=None, feature_rngs=None):
    """CART trees with Gini impurity and best-split strategy, grown in
    lockstep until no leaf has a cut that lowers its impurity; tree t is
    grown on lane ``lane[t]`` of ``lanes``, on the rows where ``weights[t]``
    (T, n) is above 0, each counted that many times (its bootstrap draws).

    Each tree expands its nodes depth first, left child first. At each step
    every tree goes on to its next node that needs a split search, and one
    ``best_split`` call searches all of those nodes. When ``max_features``
    is below d, each searched node of tree t considers a random subset of
    that many features drawn from ``feature_rngs[t]`` (random-forest
    style).

    Returns (TreeNodes stack, gain of each node (T, m)): a split's weighted
    Gini decrease times its share of the tree's rows, 0 at a leaf.
    """
    n_trees, (n, d) = len(lane), lanes.X.shape[1:]
    draw = max_features is not None and max_features < d
    grown = TreeNodes.empty((n_trees, 2 * n - 1))
    feature, threshold, left, right, value = grown.arrays()
    gain = np.zeros(value.shape)
    count = [0] * n_trees
    # each tree's row and fast-row weights (2, T, n): small integers, summed exactly
    stats = np.array([weights, np.where(lanes.y[lane] == 1, weights, 0)], dtype=float)
    n_root, fast_root = stats.sum(axis=2)
    # pending nodes of each tree: (rows mask, parent of a right child or
    # NO_CHILD, row weight, fast weight)
    stacks = [[(weights[t] > 0, NO_CHILD, n_root[t], fast_root[t])] for t in range(n_trees)]
    while True:
        search = []
        for t, stack in enumerate(stacks):
            while stack:
                rows, parent, rows_in, fast = stack.pop()
                node = count[t]
                count[t] += 1
                if parent != NO_CHILD:
                    right[t, parent] = node
                value[t, node] = (fast - (rows_in - fast)) / rows_in
                if 0 < fast < rows_in:
                    search.append((t, node, rows, rows_in, fast))
                    break
        if not search:
            break
        trees, nodes, masks, rows_in, fast = (np.array(c) for c in zip(*search))
        if draw:
            feats = np.array([np.sort(feature_rngs[t].choice(d, size=max_features, replace=False))
                              for t in trees])
        else:
            feats = np.broadcast_to(np.arange(d), (len(trees), d))
        lane_x = lanes.X[lane[trees, None, None], np.arange(n)[:, None], feats[:, None, :]]
        col, _, thr, best, (n_left, fast_left) = best_split(
            sort_lanes(lane_x, masks), np.where(masks, stats[:, trees], 0.0),
            gini_score(rows_in, fast))
        j = feats[np.arange(len(trees)), col]
        go_left = lanes.X[lane[trees], :, j] <= thr[:, None]
        to_left, to_right = masks & go_left, masks & ~go_left
        split = best > -np.inf
        t, node = trees[split], nodes[split]
        feature[t, node] = j[split]
        threshold[t, node] = thr[split]
        gain[t, node] = rows_in[split] / n_root[t] * best[split]
        left[t, node] = node + 1
        for s in np.flatnonzero(split):
            stack = stacks[trees[s]]
            stack.append((to_right[s], nodes[s], rows_in[s] - n_left[s], fast[s] - fast_left[s]))
            stack.append((to_left[s], NO_CHILD, n_left[s], fast_left[s]))
    return grown[:, :max(count)], gain[:, :max(count)]


def grow_boosting_trees(lanes, root, sums, booster, grown, gain):
    """The regression trees of one boosting round, one per lane of
    ``lanes``, each grown on its lane's own rows to the ``booster``'s
    ``max_depth`` with its ``reg_lambda`` and ``min_child_weight``, into
    ``grown``, a stack of childless nodes (L, 2^(max_depth+1) - 1); each
    split's gain goes to its node of ``gain``, of the same shape. The
    trees grow level by level, and one ``best_split`` call searches the
    leaves of a level of every tree: splits by ``gradient_score`` on (grad,
    split_hess), leaf values -G/(H+reg) on (grad, hess), where ``sums`` (L,
    3, n) holds grad, split_hess and hess. A root's sums are ``Lanes.sums``
    of its lane; a child's are those left of its parent's cut, or the
    parent's less those. ``root`` is ``sort_lanes(lanes.X, lanes.valid)``,
    which every round shares. Each tree fills the preorder slots of a
    complete tree of depth ``max_depth``: the children of slot p at depth k
    are slots p + 1 and p + 2^(max_depth - k), so slot order is depth-first
    order.

    Returns the value of each row's leaf (L, n).
    """
    n_lanes, n, d = lanes.X.shape
    max_depth, reg_lambda = booster.max_depth, booster.reg_lambda
    feature, threshold, left, right, value = grown.arrays()
    # the node each row has reached (padding rows stay at the root)
    at = np.zeros((n_lanes, n), dtype=int)
    # the level's nodes, lane by lane, and their sums
    lane, node, masks = np.arange(n_lanes), np.zeros(n_lanes, dtype=int), lanes.valid
    node_sums = lanes.sums(sums.transpose(1, 0, 2))
    for depth in range(max_depth + 1):
        counts = masks.sum(axis=1)
        g, split_h, h = node_sums
        value[lane, node] = -g / (h + reg_lambda + 1e-12)
        search = np.flatnonzero(counts >= 2)
        if depth == max_depth or not len(search):
            break
        # every lane has 2 rows or more, so the roots search every lane
        searched = root if depth == 0 else sort_lanes(lanes.X[lane[search]], masks[search])
        stats = np.where(masks[search], sums[lane[search]].transpose(1, 0, 2), 0.0)
        col, _, thr, best, left_sums = best_split(
            searched, stats,
            gradient_score(g[search], split_h[search], reg_lambda, booster.min_child_weight))
        found = best > -np.inf
        if not found.any():
            break
        parent = search[found]
        col, thr, left_sums = col[found], thr[found], left_sums[:, found]
        split_lane, split_node = lane[parent], node[parent]
        feature[split_lane, split_node], threshold[split_lane, split_node] = col, thr
        gain[split_lane, split_node] = best[found]
        go_left = lanes.X[split_lane, :, col] <= thr[:, None]
        masks = np.stack([masks[parent] & go_left, masks[parent] & ~go_left], axis=1).reshape(-1, n)
        node_sums = np.stack([left_sums, node_sums[:, parent] - left_sums], axis=2).reshape(3, -1)
        lane = np.repeat(split_lane, 2)
        node = (split_node[:, None] + [1, 2 ** (max_depth - depth)]).reshape(-1)
        left[split_lane, split_node], right[split_lane, split_node] = node[0::2], node[1::2]
        child, row = np.nonzero(masks)
        at[lane[child], row] = node[child]
    return value[np.arange(n_lanes)[:, None], at]


def feature_gains(nodes, gain, width):
    """Each tree's split gains per feature, (T, width): the ``gain`` (T, m)
    a grower recorded at the nodes of ``nodes``, added in node order."""
    t, node = np.nonzero(nodes.feature != NO_CHILD)
    gains = np.zeros((len(nodes.feature), width))
    np.add.at(gains, (t, nodes.feature[t, node]), gain[t, node])
    return gains
