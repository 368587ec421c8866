"""RBF-kernel support vector classifier. SMO solves its dual with the
second-order working-set selection of Fan, Chen & Lin (2005, JMLR 6,
"Working Set Selection Using Second Order Information for Training SVM"),
LIBSVM's WSS2, for many training sets (lanes) at once.

Each lane keeps the gradient ``G = Q alpha - 1`` of its dual, with ``Q_st =
y_s y_t K_st`` and y in {-1, +1}. One iteration picks each lane's working
pair from its own rows: i maximizes ``-y_t G_t`` over the rows whose alpha
may move up, and j minimizes the second-order decrease ``-b^2 / a`` over the
rows whose alpha may move down. The iteration then moves the pair's two
alphas by LIBSVM's clipped step and updates the gradient from two kernel
rows. A lane leaves the stack once its maximal violating pair's gap is below
``eps``. Only elementwise updates and per-lane argmax/argmin touch the
stack, so each lane is bit for bit its fit alone. ThunderSVM (Wen et al.,
2018, JMLR 19) batches SMO work over a GPU the same way.
"""

import numpy as np

# LIBSVM's floor on a working pair's curvature K_ii + K_jj - 2 K_ij
TAU = 1e-12


def rbf_kernel(A, B, gamma):
    """The kernel of the rows of A (..., m, d) against those of B (s, d), or
    of each matrix of a stack A against its own of a stack B (..., s, d);
    ``gamma`` broadcasts against the (..., m, s) result."""
    a2 = np.sum(A * A, axis=-1)[..., None]
    b2 = np.sum(B * B, axis=-1)[..., None, :]
    return np.exp(-gamma * np.maximum(a2 + b2 - 2.0 * (A @ np.swapaxes(B, -1, -2)), 0.0))


def _kernels(lanes):
    """Each lane's gamma, ``1 / (d * var)`` of its rows or 1 when they are
    constant, and its kernel matrix on its own rows, 0 on padding rows:
    arrays (lanes,) and (lanes, n, n). The lanes of one row count share one
    stacked ``rbf_kernel``, and each lane's values round as ``rbf_kernel``
    on its rows alone."""
    n_lanes, n, d = lanes.X.shape
    gamma, K = np.empty(n_lanes), np.zeros((n_lanes, n, n))
    for ls, c in lanes.groups:
        A = lanes.X[ls, :c]
        var = A.reshape(len(A), -1).var(axis=1)
        gamma[ls] = g = 1.0 / np.where(var > 0, d * var, 1.0)
        K[ls, :c, :c] = rbf_kernel(A, A, g[:, None, None])
    return gamma, K


def _step_pair(ai, aj, delta, same, C):
    """The pair (ai, aj) after LIBSVM's step ``delta``: j moves by delta and
    i by -delta when the two share a label, by delta when they do not, so
    that ai + aj or ai - aj keeps its value. The step is clipped to the
    segment of that line inside the box [0, C], and at an end of the
    segment both values are set from the bounds, as LIBSVM sets them."""
    k = np.where(same, ai + aj, ai - aj)
    over = k - C
    # the ends of the segment, (lo_i, lo_j) and (hi_i, hi_j), lo_j <= hi_j
    lo_i = np.where(same, np.minimum(C, k), np.maximum(0.0, k))
    lo_j = np.maximum(0.0, np.where(same, over, -k))
    hi_i = np.where(same, np.maximum(0.0, over), np.minimum(C, C + k))
    hi_j = np.minimum(C, np.where(same, k, C - k))
    ai, aj = np.where(same, ai - delta, ai + delta), aj + delta
    below, above = aj < lo_j, aj > hi_j
    return (np.where(below, lo_i, np.where(above, hi_i, ai)),
            np.where(below, lo_j, np.where(above, hi_j, aj)))


class SMOSVC:
    """Soft-margin SVC with the RBF kernel; its gamma is 1 / (d * var(X)),
    or 1 when the training matrix is constant, set at fit time."""

    C, eps, max_iter = 1.0, 1e-6, 10_000

    @staticmethod
    def lane_cost(n, width):
        # the lane's (n, n) kernel matrix
        return n * n

    @staticmethod
    def fit_many(models, lanes):
        """Sets each model's ``gamma_``, ``alpha_``, ``b_``, its support
        vectors, ``n_iter_`` (pair steps taken) and ``converged_`` (False
        when ``max_iter`` steps ended the solve with a gap of ``eps`` or
        more)."""
        n_lanes, n = lanes.y.shape
        C, eps, max_iter = models[0].C, models[0].eps, models[0].max_iter
        gamma, K = _kernels(lanes)
        ypm = np.where(lanes.y == 1, 1.0, -1.0)
        # padding rows hold alpha NaN, which fails every comparison: they
        # are in neither index set, and their gradient keeps -1
        alpha = np.where(lanes.valid, 0.0, np.nan)
        G = np.full((n_lanes, n), -1.0)
        n_iter, converged = np.zeros(n_lanes, dtype=int), np.zeros(n_lanes, dtype=bool)
        # the lanes still in the stack, where they came from and their state
        live = rows = np.arange(n_lanes)
        alpha_s, G_s, K_s, y_s = alpha.copy(), G.copy(), K, ypm
        diag_s, pos_s = K.diagonal(axis1=1, axis2=2), ypm > 0
        for step in range(max_iter + 1):
            score = -y_s * G_s
            below_c, above_0 = alpha_s < C, alpha_s > 0
            # I_up and I_low of Fan, Chen & Lin: i may move up, j down
            up_score = np.where(np.where(pos_s, below_c, above_0), score, -np.inf)
            down = np.where(pos_s, above_0, below_c)
            i = up_score.argmax(axis=1)
            top = up_score[rows, i]
            gap_met = top - np.where(down, score, np.inf).min(axis=1) < eps
            done = gap_met if step < max_iter else np.ones(len(live), dtype=bool)
            if done.any():
                out = live[done]
                alpha[out], G[out] = alpha_s[done], G_s[done]
                n_iter[out], converged[out] = step, gap_met[done]
                if done.all():
                    break
                keep = ~done
                live, alpha_s, G_s, K_s, y_s, diag_s, pos_s, i, top, score, down = (
                    v[keep] for v in (live, alpha_s, G_s, K_s, y_s, diag_s, pos_s,
                                      i, top, score, down))
                rows = np.arange(len(live))
            Ki = K_s[rows, i]
            b = top[:, None] - score
            # each pair's curvature K_ii + K_tt - 2 K_it, floored at TAU; j
            # maximizes the decrease b^2 / curvature over I_low where b > 0
            curv = diag_s[rows, i][:, None] + diag_s - 2.0 * Ki
            curv = np.where(curv > 0, curv, TAU)
            j = np.where(down & (b > 0), b * b / curv, -np.inf).argmax(axis=1)
            Kj, yi, yj = K_s[rows, j], y_s[rows, i], y_s[rows, j]
            ai, aj, Gi, Gj = alpha_s[rows, i], alpha_s[rows, j], G_s[rows, i], G_s[rows, j]
            same = yi == yj
            delta = np.where(same, Gi - Gj, -Gi - Gj) / curv[rows, j]
            ai_new, aj_new = _step_pair(ai, aj, delta, same, C)
            alpha_s[rows, i], alpha_s[rows, j] = ai_new, aj_new
            G_s += y_s * (Ki * (yi * (ai_new - ai))[:, None] + Kj * (yj * (aj_new - aj))[:, None])

        # b = -rho: the free support vectors' mean of y G, else the midpoint
        # of the bounds on it (LIBSVM's calculate_rho)
        yG, pos = ypm * G, ypm > 0
        upper, lower = alpha >= C, alpha <= 0
        free = (alpha > 0) & (alpha < C)
        n_free = free.sum(axis=1)
        rho = lanes.sums(np.where(free, yG, 0.0)) / np.maximum(n_free, 1)
        ub = np.where((upper & ~pos) | (lower & pos), yG, np.inf).min(axis=1)
        lb = np.where((upper & pos) | (lower & ~pos), yG, -np.inf).max(axis=1)
        bounded = n_free == 0
        rho[bounded] = (ub[bounded] + lb[bounded]) / 2
        for k, (model, c) in enumerate(zip(models, lanes.counts.tolist())):
            model.gamma_, model.alpha_, model.b_ = gamma[k], alpha[k, :c].copy(), -rho[k]
            model.n_iter_, model.converged_ = int(n_iter[k]), bool(converged[k])
            sv = model.alpha_ > 0
            model.support_X_ = lanes.X[k, :c][sv]
            model.support_coef_ = (model.alpha_ * ypm[k, :c])[sv]

    def decision_function(self, X):
        return rbf_kernel(X, self.support_X_, self.gamma_) @ self.support_coef_ + self.b_
