"""Shapley-value attributions on classifier decision scores: an exact
enumeration oracle, a kernel-weighted regression estimator, and the
mean-|value| aggregation used for feature rankings."""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classifiers import TrainedModel, decision_scores
from .errors import InsufficientData, Unsupported


@dataclass(frozen=True)
class Attribution:
    values: np.ndarray      # per-feature shapley values
    base_value: float       # mean score over the background
    prediction: float       # model score at the instance

    def local_accuracy_gap(self) -> float:
        return abs(self.base_value + float(np.sum(self.values)) - self.prediction)


# Synthetic rows per model call when scoring coalitions. A call holds as
# many whole coalitions as fit (at least one), so memory stays flat however
# many coalitions an explanation scores.
CHUNK_ROWS = 4096


def _coalition_values(model, background, instance, masks):
    """v(S) for each mask: mean score with absent features taken from each
    background row.

    The coalitions of a chunk are stacked into one synthetic matrix, one
    background-sized block per mask, and scored by one model call. Each
    v(S) is bit for bit the mean of a call on its block alone.
    """
    background = np.asarray(background, dtype=float)
    instance = np.asarray(instance, dtype=float)
    n_bg, d = background.shape
    masks = np.asarray(masks, dtype=bool).reshape(len(masks), d)
    per_chunk = max(1, CHUNK_ROWS // n_bg)
    out = np.empty(len(masks))
    for start in range(0, len(masks), per_chunk):
        chunk = masks[start:start + per_chunk]
        synth = np.where(chunk[:, None, :], instance, background).reshape(-1, d)
        scores = decision_scores(model, synth, blocks=len(chunk))
        out[start:start + len(chunk)] = scores.reshape(len(chunk), n_bg).mean(axis=1)
    return out


def exact_shapley(model: TrainedModel, background, instance, max_features: int = 12) -> Attribution:
    """Classic Shapley values by full coalition enumeration (d <= 12)."""
    background = np.asarray(background, dtype=float)
    instance = np.asarray(instance, dtype=float)
    d = len(instance)
    if d > max_features:
        raise Unsupported(f"exact enumeration limited to {max_features} features")
    if len(background) == 0:
        raise ValueError("background must be non-empty")

    subsets = []
    for size in range(d + 1):
        for combo in combinations(range(d), size):
            subsets.append(combo)
    masks = [np.array([j in s for j in range(d)]) for s in subsets]
    values = dict(zip(subsets, _coalition_values(model, background, instance, masks)))

    fact = [math.factorial(i) for i in range(d + 1)]
    phi = np.zeros(d)
    for s in subsets:
        vs = values[s]
        weight_base = fact[len(s)]
        for i in range(d):
            if i in s:
                continue
            w = weight_base * fact[d - len(s) - 1] / fact[d]
            phi[i] += w * (values[tuple(sorted(s + (i,)))] - vs)
    base = values[()]
    pred = values[tuple(range(d))]
    return Attribution(phi, base, pred)


def _kernel_weight(d, size):
    return (d - 1) / (math.comb(d, size) * size * (d - size))


def _sample_coalitions(d, n_samples, rng):
    """n_samples random proper coalitions as 0/1 rows: a size drawn from
    the kernel's size profile, then that many distinct features."""
    sizes = np.arange(1, d)
    size_probs = np.array([(d - 1) / (s * (d - s)) for s in sizes])
    size_probs = size_probs / size_probs.sum()
    # the inverse-CDF draw rng.choice(sizes, p=size_probs) makes, with the
    # CDF built once instead of on every call: same stream, same sizes
    cdf = size_probs.cumsum()
    cdf /= cdf[-1]
    Z = np.zeros((n_samples, d))
    for i in range(n_samples):
        s = int(sizes[cdf.searchsorted(rng.random(), side="right")])
        Z[i, rng.choice(d, size=s, replace=False)] = 1.0
    return Z


def kernel_shap(model: TrainedModel, background, instance,
                n_samples: int = 2048, seed: int = 0) -> Attribution:
    """Kernel-weighted linear regression estimate of the Shapley values.

    The all-on and all-off coalitions enter through the enforced
    local-accuracy constraint. When n_samples covers every proper coalition
    the estimate coincides with exact enumeration.
    """
    background = np.asarray(background, dtype=float)
    instance = np.asarray(instance, dtype=float)
    d = len(instance)
    if n_samples < d + 2:
        raise InsufficientData(f"need at least d + 2 = {d + 2} samples")
    if len(background) == 0:
        raise ValueError("background must be non-empty")

    base = float(np.mean(decision_scores(model, background)))
    pred = float(np.mean(decision_scores(model, instance[None, :])))

    n_proper = 2**d - 2 if d < 63 else None
    if n_proper is not None and n_samples >= n_proper:
        Z = []
        for size in range(1, d):
            for combo in combinations(range(d), size):
                row = np.zeros(d)
                row[list(combo)] = 1.0
                Z.append(row)
        Z = np.array(Z).reshape(-1, d)  # (0, d) when d = 1
        weights = np.array([_kernel_weight(d, int(z.sum())) for z in Z])
    else:
        Z = _sample_coalitions(d, n_samples, np.random.default_rng(seed))
        # sampling already follows the size profile of the kernel; the
        # per-subset weight within a size class is uniform
        weights = np.ones(n_samples)

    v = _coalition_values(model, background, instance, Z.astype(bool))

    # eliminate phi_d via the constraint sum(phi) = pred - base
    target = v - base - Z[:, -1] * (pred - base)
    A = Z[:, :-1] - Z[:, -1][:, None]
    sw = np.sqrt(weights)
    coef, *_ = np.linalg.lstsq(A * sw[:, None], target * sw, rcond=None)
    phi = np.empty(d)
    phi[:-1] = coef
    phi[-1] = (pred - base) - float(np.sum(coef))
    return Attribution(phi, base, pred)


def mean_abs_shap(model: TrainedModel, dataset, background=None,
                  n_samples: int = 2048, seed: int = 0, max_background: int = 100):
    """mean(|shap value|) per feature over all dataset rows, ranked descending.

    Returns a list of (feature_name, mean_abs_value, rank); ties keep the
    canonical feature order.
    """
    X = dataset.X
    if len(X) == 0:
        raise ValueError("dataset must be non-empty")
    if background is None:
        background = X
    background = np.asarray(background, dtype=float)
    if len(background) > max_background:
        keep = np.random.default_rng(seed).choice(len(background), size=max_background,
                                                  replace=False)
        background = background[np.sort(keep)]
    totals = np.zeros(X.shape[1])
    for i in range(len(X)):
        att = kernel_shap(model, background, X[i], n_samples=n_samples, seed=seed + i)
        totals += np.abs(att.values)
    means = totals / len(X)
    order = sorted(range(len(means)), key=lambda j: (-means[j], j))
    names = dataset.feature_names
    return [(names[j], float(means[j]), rank + 1) for rank, j in enumerate(order)]
