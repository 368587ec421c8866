"""RBF-kernel support vector classifier trained with a deterministic SMO dual
solver (Platt 1998: Platt-style pair selection, index-ordered sweeps).

The solver holds the dual state, ``alpha`` and ``b``, with ``coef`` =
alpha * y, and two sets of values of that state, which each successful pair
step clears and the next read refills with one numpy call: ``f``, the
product ``coef @ K[:, i]`` of every column i, and ``errors``, the vector
``coef @ K + b - y``. The pair steps themselves run on Python floats.
"""

from itertools import chain

import numpy as np


def rbf_kernel(A, B, gamma):
    a2 = np.sum(A * A, axis=-1)[..., None]
    b2 = np.sum(B * B, axis=1)[None, :]
    return np.exp(-gamma * np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0))


class SMOSVC:
    """Soft-margin SVC with the RBF kernel; its gamma is 1 / (d * var(X)),
    or 1 when the training matrix is constant, set at fit time."""

    C, tol, max_passes = 1.0, 1e-3, 200

    def fit(self, X, y):
        """Solve the dual; sets ``alpha_``, ``b_``, the support vectors,
        ``n_iter_`` (sweeps made) and ``converged_`` (False when the sweep
        cap ``max_passes`` ended the solve with KKT violators left)."""
        X = np.asarray(X, dtype=float)
        ypm = np.where(np.asarray(y) == 1, 1.0, -1.0)
        n = len(ypm)
        var = X.var()
        self.gamma_ = 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        K = rbf_kernel(X, X, self.gamma_)
        Kl, yl = K.tolist(), ypm.tolist()
        Kd = K.diagonal().tolist()
        C, tol = self.C, self.tol
        alpha = [0.0] * n
        b = 0.0
        coef = np.array(alpha) * ypm
        # f of every column in one stacked product, which makes the same
        # strided ddot per column as ``coef @ K[:, i]``; the errors in one
        # gemv. f(i) = f[i] + b and the errors round differently: the
        # first-choice j takes its error from the errors, every other value
        # comes from f.
        row, cols = coef[None, None, :], K.T[:, :, None]
        dots, products = np.empty((n, 1, 1)), np.empty(n)
        f = errors = None
        n_iter, converged, examine_all = 0, False, True
        while n_iter < self.max_passes and not converged:
            n_iter += 1
            changed = 0
            for i in range(n):
                ai_old = alpha[i]
                if not examine_all and not 0 < ai_old < C:
                    continue
                if f is None:
                    f = np.matmul(row, cols, out=dots).ravel().tolist()
                yi = yl[i]
                Ei = f[i] + b - yi
                if not ((yi * Ei < -tol and ai_old < C) or (yi * Ei > tol and ai_old > 0)):
                    continue
                if errors is None:
                    errors = [e + b - y for e, y
                              in zip(np.matmul(coef, K, out=products).tolist(), yl)]
                # second-choice heuristic: maximize |Ei - Ej| over j != i,
                # lowest index on ties; when its step fails, try every j in
                # index order
                gaps = [abs(Ei - e) for e in errors]
                gaps[i] = -1.0
                first = gaps.index(max(gaps))
                if first == i:
                    continue
                Ki = Kl[i]
                for k, j in enumerate(chain((first,), range(n))):
                    if j == i:
                        continue
                    aj_old, yj = alpha[j], yl[j]
                    if yi != yj:
                        L, H = aj_old - ai_old, C + aj_old - ai_old
                    else:
                        L, H = ai_old + aj_old - C, ai_old + aj_old
                    # max(0, L) and min(C, H), spelled out for speed
                    L = L if L > 0.0 else 0.0
                    H = H if H < C else C
                    if H - L < 1e-12:
                        continue
                    eta = 2.0 * Ki[j] - Ki[i] - Kd[j]
                    if eta >= -1e-12:
                        continue
                    Ej = errors[j] if k == 0 else f[j] + b - yj
                    aj = aj_old - yj * (Ei - Ej) / eta
                    aj = L if L > aj else aj
                    aj = H if H < aj else aj
                    if abs(aj - aj_old) < 1e-7 * (aj + aj_old + 1e-7):
                        continue
                    ai = ai_old + yi * yj * (aj_old - aj)
                    b1 = b - Ei - yi * (ai - ai_old) * Ki[i] - yj * (aj - aj_old) * Ki[j]
                    b2 = b - Ej - yi * (ai - ai_old) * Ki[j] - yj * (aj - aj_old) * Kd[j]
                    if 0 < ai < C:
                        b = b1
                    elif 0 < aj < C:
                        b = b2
                    else:
                        b = 0.5 * (b1 + b2)
                    alpha[i], alpha[j] = ai, aj
                    coef[i], coef[j] = ai * yi, aj * yj
                    f = errors = None
                    changed += 1
                    break
            if changed == 0:
                converged = examine_all
                examine_all = True
            else:
                examine_all = False

        self.alpha_ = np.array(alpha, dtype=float)
        self.b_ = b
        self.n_iter_ = n_iter
        self.converged_ = converged
        sv = self.alpha_ > 1e-12
        self.support_X_ = X[sv]
        self.support_coef_ = coef[sv]
        return self

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        if len(self.support_X_) == 0:
            return np.full(X.shape[:-1], self.b_)
        return rbf_kernel(X, self.support_X_, self.gamma_) @ self.support_coef_ + self.b_
