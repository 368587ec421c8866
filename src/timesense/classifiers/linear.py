"""Linear and Gaussian generative classifiers: logistic regression (damped
Newton), Gaussian naive Bayes, and linear / quadratic discriminant analysis."""

import numpy as np


def sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(w, b, X, y, l2):
    """Mean negative log-likelihood plus an L2 penalty on the weights."""
    return _loss_at(X @ w + b, w, y, l2)


def _loss_at(z, w, y, l2):
    """``logistic_loss`` given the margins ``z = X @ w + b``."""
    # log(1 + exp(-m)) with m = z for y=1, -z for y=0, computed stably
    m = np.where(y == 1, z, -z)
    nll = np.mean(np.logaddexp(0.0, -m))
    return nll + 0.5 * l2 * float(w @ w)


def _gradient_at(p, w, X, y, l2):
    """Gradient of ``logistic_loss`` given the probabilities ``p`` at (w, b)."""
    r = (p - y) / len(y)
    return X.T @ r + l2 * w, float(np.sum(r))


class LogisticRegressionNewton:
    """L2-regularized maximum likelihood via damped Newton iterations.

    Converges to gradient infinity-norm below ``tol``; the bias is not
    penalized.
    """

    l2, tol, max_iter = 1.0, 1e-8, 200

    def fit(self, X, y):
        """Sets ``w``, ``b``, ``n_iter_`` (Newton steps taken) and
        ``converged_`` (False when ``max_iter`` steps ended the solve before
        the gradient tolerance was met)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        Xa = np.hstack([X, np.ones((n, 1))])
        ridge = self.l2 * np.eye(d)
        jitter = 1e-10 * np.eye(d + 1)
        w = np.zeros(d)
        b = 0.0
        z = X @ w + b
        loss = _loss_at(z, w, y, self.l2)
        n_iter, converged = 0, False
        while n_iter < self.max_iter:
            # the margins of the accepted step give one probability vector,
            # which serves both the gradient and the Hessian
            p = sigmoid(z)
            gw, gb = _gradient_at(p, w, X, y, self.l2)
            if max(np.max(np.abs(gw)), abs(gb)) < self.tol:
                converged = True
                break
            s = p * (1.0 - p) / n
            H = Xa.T @ (Xa * s[:, None])
            H[:d, :d] += ridge
            H += jitter
            g = np.concatenate([gw, [gb]])
            step = np.linalg.solve(H, g)
            # damping: halve until the loss decreases
            t = 1.0
            for _ in range(40):
                w_new, b_new = w - t * step[:d], b - t * step[d]
                z_new = X @ w_new + b_new
                new_loss = _loss_at(z_new, w_new, y, self.l2)
                if new_loss <= loss + 1e-15:
                    break
                t *= 0.5
            w, b, z, loss = w_new, b_new, z_new, new_loss
            n_iter += 1
        self.n_iter_, self.converged_ = n_iter, converged
        self.w, self.b = w, b
        return self

    def decision_function(self, X):
        return np.asarray(X, dtype=float) @ self.w + self.b

    def importance(self):
        return np.abs(self.w)


class GaussianNB:
    """Per-class independent Gaussians with variance smoothing."""

    var_smoothing = 1e-9

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        eps = self.var_smoothing * max(X.var(axis=0).max(), 1e-30)
        self.means_ = np.stack([X[y == c].mean(axis=0) for c in (0, 1)])
        self.vars_ = np.stack([X[y == c].var(axis=0) + eps for c in (0, 1)])
        self.log_priors_ = np.log(np.array([(y == 0).mean(), (y == 1).mean()]))
        return self

    def _log_likelihood(self, X, c):
        diff = X - self.means_[c]
        return -0.5 * np.sum(np.log(2 * np.pi * self.vars_[c]) + diff**2 / self.vars_[c], axis=-1)

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        return (self._log_likelihood(X, 1) + self.log_priors_[1]
                - self._log_likelihood(X, 0) - self.log_priors_[0])


class LDA:
    """Pooled-covariance discriminant with a small ridge on the covariance."""

    ridge = 1e-6

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n, d = X.shape
        mu0 = X[y == 0].mean(axis=0)
        mu1 = X[y == 1].mean(axis=0)
        centered = X - np.where(y[:, None] == 1, mu1, mu0)
        cov = centered.T @ centered / n
        cov += self.ridge * np.eye(d)
        self.w = np.linalg.solve(cov, mu1 - mu0)
        pi1 = (y == 1).mean()
        self.b = float(-0.5 * (mu0 + mu1) @ self.w + np.log(pi1 / (1 - pi1)))
        self.means_ = np.stack([mu0, mu1])
        return self

    def decision_function(self, X):
        return np.asarray(X, dtype=float) @ self.w + self.b

    def importance(self):
        return np.abs(self.w)


class QDA:
    """Per-class covariance Gaussians with the same ridge as LDA."""

    ridge = 1e-6

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        d = X.shape[1]
        self.means_, self.inv_covs_, self.logdets_ = [], [], []
        for c in (0, 1):
            Xc = X[y == c]
            mu = Xc.mean(axis=0)
            cov = (Xc - mu).T @ (Xc - mu) / len(Xc) + self.ridge * np.eye(d)
            sign, logdet = np.linalg.slogdet(cov)
            self.means_.append(mu)
            self.inv_covs_.append(np.linalg.inv(cov))
            self.logdets_.append(logdet)
        self.log_priors_ = np.log(np.array([(y == 0).mean(), (y == 1).mean()]))
        return self

    def _score_class(self, X, c):
        diff = X - self.means_[c]
        maha = np.einsum("...j,jk,...k->...", diff, self.inv_covs_[c], diff)
        return -0.5 * (maha + self.logdets_[c]) + self.log_priors_[c]

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        return self._score_class(X, 1) - self._score_class(X, 0)
