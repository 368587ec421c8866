"""Linear and Gaussian generative classifiers: logistic regression (damped
Newton), Gaussian naive Bayes, and linear / quadratic discriminant analysis.

Each kind fits the lanes of one ``train_many`` block in one call: lr in
one Newton loop over ``NewtonLanes``, gnb, lda and qda from one class sort
(``class_rows``) and stacked covariances. Each lane's model is bit for bit
its fit alone."""

import numpy as np

from .lanes import Lanes


def sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class NewtonLanes(Lanes):
    """Lanes with the products and sums of lr's Newton loop.

    Elementwise work runs on the whole stack, padding too; no sum or product
    reads the padding. Products and row sums run per row count c, on the
    views ``X[lanes, :c]``: there each lane gets the BLAS call and the
    summation order of a fit on its own rows, where a zero-padded product or
    sum would round differently.
    """

    def __init__(self, X, y, counts):
        super().__init__(X, y, counts)
        # the rows with a column of ones appended, for the bias
        self.Xa = np.concatenate([X, np.ones(y.shape + (1,))], axis=2)

    def margins(self, w, b):
        """Every lane's ``X @ w + b`` (lanes, n), 0 on padding rows; ``w`` is
        (lanes, width)."""
        z = np.zeros(self.y.shape)
        for ls, c in self.groups:
            z[ls, :c] = (self.X[ls, :c] @ w[ls, :, None])[..., 0] + b[ls, None]
        return z

    def loss(self, z, w, l2):
        """Each lane's mean negative log-likelihood plus an L2 penalty on its
        weights, given its margins ``z``; the bias is not penalized."""
        # log(1 + exp(-m)) with m = z for y=1, -z for y=0, computed stably
        m = np.where(self.y == 1, z, -z)
        nll = self.sums(np.logaddexp(0.0, -m)) / self.counts
        return nll + 0.5 * l2 * (w[:, None, :] @ w[:, :, None])[:, 0, 0]

    def gradient(self, p, w, l2):
        """Each lane's gradient of ``loss`` in its weights and in its bias,
        given its probabilities ``p``."""
        r = (p - self.y) / self.counts[:, None]
        gw = np.concatenate([np.swapaxes(self.X[ls, :c], 1, 2) @ r[ls, :c, None]
                             for ls, c in self.groups])
        return gw[..., 0] + l2 * w, self.sums(r)

    def hessians(self, p):
        """Each lane's Hessian of its mean negative log-likelihood in its
        weights and bias, given its probabilities ``p``."""
        Xs = self.Xa * (p * (1.0 - p) / self.counts[:, None])[..., None]
        return np.concatenate([np.swapaxes(self.Xa[ls, :c], 1, 2) @ Xs[ls, :c]
                               for ls, c in self.groups])


class LogisticRegressionNewton:
    """L2-regularized maximum likelihood via damped Newton iterations.

    Converges to gradient infinity-norm below ``tol``; the bias is not
    penalized.
    """

    l2, tol, max_iter = 1.0, 1e-8, 200

    @staticmethod
    def lane_cost(n, width):
        # one copy of the lane's rows
        return n * width

    @staticmethod
    def fit_many(models, lanes):
        """Sets each model's ``w``, ``b``, ``n_iter_`` (Newton steps taken)
        and ``converged_`` (False when ``max_iter`` steps ended the solve
        before the gradient tolerance was met).

        The lanes take their Newton steps in one loop. Each lane leaves it
        when its own gradient meets the tolerance and halves its own step
        until its loss decreases, so each model is bit for bit the one a fit
        on its lane alone gives.
        """
        stack = NewtonLanes(lanes.X, lanes.y, lanes.counts)
        l2, tol, max_iter = models[0].l2, models[0].tol, models[0].max_iter
        d = stack.X.shape[2]
        ridge = l2 * np.eye(d)
        jitter = 1e-10 * np.eye(d + 1)
        w = np.zeros((len(models), d))
        b = np.zeros(len(models))
        z = stack.margins(w, b)
        loss = stack.loss(z, w, l2)

        def finish(done, n_iter, converged):
            for k in np.flatnonzero(done):
                model = models[k]
                model.w, model.b = w[k].copy(), b[k]
                model.n_iter_, model.converged_ = n_iter, converged

        for n_iter in range(max_iter):
            # the margins of the accepted step give one probability vector,
            # which serves both the gradient and the Hessian
            p = sigmoid(z)
            gw, gb = stack.gradient(p, w, l2)
            done = np.maximum(np.abs(gw).max(axis=1), np.abs(gb)) < tol
            if done.any():
                finish(done, n_iter, True)
                if done.all():
                    return
                keep = ~done
                stack = stack[keep]
                models = [m for m, k in zip(models, keep) if k]
                w, b, loss, gw, gb, p = w[keep], b[keep], loss[keep], gw[keep], gb[keep], p[keep]
            H = stack.hessians(p)
            H[:, :d, :d] += ridge
            H += jitter
            g = np.concatenate([gw, gb[:, None]], axis=1)
            step = np.linalg.solve(H, g[..., None])[..., 0]
            # damping: each lane halves its step until its loss decreases; a
            # lane that stopped halving keeps its t, and so its trial
            t = np.ones(len(models))
            for _ in range(40):
                w_new, b_new = w - t[:, None] * step[:, :d], b - t * step[:, d]
                z_new = stack.margins(w_new, b_new)
                new_loss = stack.loss(z_new, w_new, l2)
                halving = ~(new_loss <= loss + 1e-15)
                if not halving.any():
                    break
                t[halving] *= 0.5
            w, b, z, loss = w_new, b_new, z_new, new_loss
        finish(np.ones(len(models), dtype=bool), max_iter, False)

    def decision_function(self, X):
        return X @ self.w + self.b

    def importance(self):
        return np.abs(self.w)


def class_rows(lanes):
    """Each lane's class shares (lanes, 2) and class means (lanes, 2,
    width), and ``(lanes, rows)`` per group of lanes of one row count and
    one class-0 count: ``rows[k]`` holds their class-k rows in order, which
    one call averages as a lane's mean alone does."""
    key = np.where(lanes.valid, lanes.y, 2)
    by_class = np.take_along_axis(
        lanes.X, np.argsort(key, axis=1, kind="stable")[..., None], axis=1)
    n_slow = (lanes.valid & (lanes.y == 0)).sum(axis=1)
    means = np.empty((len(n_slow), 2, lanes.X.shape[2]))
    groups = []
    for ls, c in lanes.groups:
        for n0 in np.unique(n_slow[ls]).tolist():
            same = ls.start + np.flatnonzero(n_slow[ls] == n0)
            rows = by_class[same, :n0], by_class[same, n0:c]
            means[same] = np.stack([r.mean(axis=1) for r in rows], axis=1)
            groups.append((same, rows))
    shares = np.stack([n_slow, lanes.counts - n_slow], axis=1) / lanes.counts[:, None]
    return shares, means, groups


class GaussianNB:
    """Per-class independent Gaussians with variance smoothing."""

    var_smoothing = 1e-9

    @staticmethod
    def lane_cost(n, width):
        # a class-sorted and a centered copy of the lane's rows
        return 2 * n * width

    @staticmethod
    def fit_many(models, lanes):
        shares, means, groups = class_rows(lanes)
        variances = np.empty(means.shape)
        for same, rows in groups:
            variances[same] = np.stack([r.var(axis=1) for r in rows], axis=1)
        largest = np.concatenate([lanes.X[ls, :c].var(axis=1).max(axis=1)
                                  for ls, c in lanes.groups])
        for b, model in enumerate(models):
            eps = model.var_smoothing * max(largest[b], 1e-30)
            model.means_, model.vars_ = means[b].copy(), variances[b] + eps
            model.log_priors_ = np.log(shares[b])

    def _log_likelihood(self, X, c):
        diff = X - self.means_[c]
        return -0.5 * np.sum(np.log(2 * np.pi * self.vars_[c]) + diff**2 / self.vars_[c], axis=-1)

    def decision_function(self, X):
        return (self._log_likelihood(X, 1) + self.log_priors_[1]
                - self._log_likelihood(X, 0) - self.log_priors_[0])


class LDA:
    """Pooled-covariance discriminant with a small ridge on the covariance.

    The lanes of one ``train_many`` block fit together, and each model is
    bit for bit the fit of its lane alone: ``class_rows`` gives their class
    means, the lanes of one row count form their covariances in one stacked
    product, and one batched solve gives every lane's weights."""

    ridge = 1e-6

    @staticmethod
    def lane_cost(n, width):
        # a centered copy of the lane's rows and its covariance
        return (n + width) * width

    @staticmethod
    def fit_many(models, lanes):
        d = lanes.X.shape[2]
        shares, means, _ = class_rows(lanes)
        cov = np.empty((len(models), d, d))
        for ls, c in lanes.groups:
            own = lanes.y[ls, :c, None] == 1
            centered = lanes.X[ls, :c] - np.where(own, means[ls, 1:], means[ls, :1])
            cov[ls] = np.swapaxes(centered, 1, 2) @ centered / c
        cov += models[0].ridge * np.eye(d)
        w = np.linalg.solve(cov, (means[:, 1] - means[:, 0])[..., None])[..., 0]
        for b, model in enumerate(models):
            mu0, mu1 = means[b]
            pi1 = shares[b, 1]
            model.w, model.means_ = w[b].copy(), means[b].copy()
            model.b = float(-0.5 * (mu0 + mu1) @ model.w + np.log(pi1 / (1 - pi1)))

    # lr's linear score and importance
    decision_function = LogisticRegressionNewton.decision_function
    importance = LogisticRegressionNewton.importance


class QDA:
    """Per-class covariance Gaussians with the same ridge as LDA."""

    ridge = 1e-6

    @staticmethod
    def lane_cost(n, width):
        # a class-sorted and a centered copy of the lane's rows, its two
        # covariances and their inverses
        return 2 * (n + 2 * width) * width

    @staticmethod
    def fit_many(models, lanes):
        d = lanes.X.shape[2]
        shares, means, groups = class_rows(lanes)
        cov = np.empty((len(models), 2, d, d))
        for same, rows in groups:
            for k, r in enumerate(rows):
                centered = r - means[same, k, None]
                # a copy: a matrix times its own transpose takes another BLAS call
                cov[same, k] = np.swapaxes(centered.copy(), 1, 2) @ centered / r.shape[1]
        cov += models[0].ridge * np.eye(d)
        logdets, inv_covs = np.linalg.slogdet(cov)[1], np.linalg.inv(cov)
        for b, model in enumerate(models):
            model.means_, model.inv_covs_ = means[b].copy(), inv_covs[b].copy()
            model.logdets_, model.log_priors_ = logdets[b].copy(), np.log(shares[b])

    def _score_class(self, X, c):
        diff = X - self.means_[c]
        maha = np.einsum("...j,jk,...k->...", diff, self.inv_covs_[c], diff)
        return -0.5 * (maha + self.logdets_[c]) + self.log_priors_[c]

    def decision_function(self, X):
        return self._score_class(X, 1) - self._score_class(X, 0)
