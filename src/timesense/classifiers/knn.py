"""k-nearest-neighbour classifier (store and query, Euclidean metric)."""

import numpy as np


class KNN:
    """Majority vote of the k nearest training rows.

    Neighbour ties at equal distance are broken by the canonical training
    order (rows are canonically sorted before fit), so predictions do not
    depend on input row order. A vote tie scores 0 and resolves to slow.
    """

    def __init__(self, k=5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def fit(self, X, y, rng=None):
        self.X_ = np.asarray(X, dtype=float)
        self.y_ = np.asarray(y, dtype=int)
        return self

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        k = min(self.k, len(self.y_))
        d2 = (np.sum(X * X, axis=-1)[..., None]
              + np.sum(self.X_ * self.X_, axis=1)[None, :]
              - 2.0 * X @ self.X_.T)
        # stable argsort keeps canonical training order on distance ties
        nearest = np.argsort(d2, axis=-1, kind="stable")[..., :k]
        votes = np.where(self.y_[nearest] == 1, 1.0, -1.0)
        return votes.sum(axis=-1) / k
