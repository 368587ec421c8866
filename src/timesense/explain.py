"""Shapley-value attributions on classifier decision scores: an exact
enumeration oracle, a kernel-weighted regression estimator, and the
mean-|value| aggregation used for feature rankings."""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .classifiers import TrainedModel, decision_scores
from .errors import InsufficientData, InvalidInput, Unsupported, check_integer, finite_array


@dataclass(frozen=True)
class Attribution:
    values: np.ndarray      # per-feature shapley values
    base_value: float       # mean score over the background
    prediction: float       # model score at the instance

    def local_accuracy_gap(self) -> float:
        return abs(self.base_value + float(np.sum(self.values)) - self.prediction)


# The schema of a ranking CSV, the rows of ``mean_abs_shap`` under the header
# line ``# schema_version=<this>``.
RANKING_SCHEMA_VERSION = 1
# Exact enumeration scores all 2^d coalitions, so it takes at most this many
# features.
EXACT_MAX_FEATURES = 12
# The most background rows mean_abs_shap keeps: a dataset of more rows gives
# a seeded draw of this many.
MAX_BACKGROUND = 100
# The most coalitions kernel SHAP scores per explained row: at this bound the
# exhaustive branch serves up to 16 features.
MAX_SAMPLES = 1 << 16
# The most coalition entries, n_samples x d, kernel SHAP takes per explained
# row. It bounds the raw words drawn, the coalition matrix and the
# least-squares problem of a wide dataset, and admits every n_samples up to
# MAX_SAMPLES at d <= 64. As n_samples >= d + 2, it also holds d below 2,048,
# where Generator.choice draws by Floyd's algorithm, as the replay assumes.
MAX_COALITION_ENTRIES = 1 << 22
# Synthetic rows per model call when scoring coalitions. A call holds as
# many whole coalitions as fit (at least one), so memory stays flat however
# many coalitions an explanation scores.
CHUNK_ROWS = 4096


def _explained(background, instance):
    """``background`` and ``instance`` as float arrays: a finite 1-D
    instance and finite background rows of its length, else
    InvalidInput."""
    background = finite_array("background", background)
    instance = finite_array("instance", instance)
    if instance.ndim != 1 or background.ndim != 2 or background.shape[1] != len(instance):
        raise InvalidInput(f"background of shape {background.shape} and instance of shape "
                           f"{instance.shape}: need an instance (d,) and a background (n, d)")
    return background, instance


def _coalition_values(model, background, instance, masks):
    """v(S) for each mask: mean score with absent features taken from each
    background row; ``background`` and ``instance`` as ``_explained``
    returns them.

    The coalitions of a chunk are stacked into one synthetic stack, one
    background-sized block per mask, and scored by one model call. Each
    v(S) is bit for bit the mean of a call on its block alone.
    """
    n_bg, d = background.shape
    masks = np.asarray(masks, dtype=bool).reshape(len(masks), d)
    per_chunk = max(1, CHUNK_ROWS // n_bg)
    out = np.empty(len(masks))
    for start in range(0, len(masks), per_chunk):
        chunk = masks[start:start + per_chunk]
        synth = np.where(chunk[:, None, :], instance, background)
        out[start:start + len(chunk)] = decision_scores(model, synth).mean(axis=1)
    return out


def _coalitions(d, sizes):
    """Bool masks of the coalitions of d features with each size in
    ``sizes``: by size, then in ``itertools.combinations`` order."""
    combos = [c for size in sizes for c in combinations(range(d), size)]
    masks = np.zeros((len(combos), d), dtype=bool)
    for mask, combo in zip(masks, combos):
        mask[list(combo)] = True
    return masks


def exact_shapley(model: TrainedModel, background, instance) -> Attribution:
    """Classic Shapley values by full coalition enumeration (d <=
    ``EXACT_MAX_FEATURES``)."""
    background, instance = _explained(background, instance)
    d = len(instance)
    if d > EXACT_MAX_FEATURES:
        raise Unsupported(f"exact enumeration limited to {EXACT_MAX_FEATURES} features")
    if len(background) == 0:
        raise InsufficientData("background must be non-empty")

    masks = _coalitions(d, range(d + 1))
    # v(S) at the bit code of S, so that S with i added is at code | 1 << i
    codes = masks @ (1 << np.arange(d))
    values = np.empty(2**d)
    values[codes] = _coalition_values(model, background, instance, masks)

    fact = [math.factorial(i) for i in range(d + 1)]
    phi = np.zeros(d)
    for s, code in zip(masks, codes):
        vs = values[code]
        size = int(s.sum())
        for i in range(d):
            if s[i]:
                continue
            w = fact[size] * fact[d - size - 1] / fact[d]
            phi[i] += w * (values[code | 1 << i] - vs)
    base = values[0]
    pred = values[-1]
    return Attribution(phi, base, pred)


def _kernel_weight(d, size):
    return (d - 1) / (math.comb(d, size) * size * (d - size))


def _size_cdf(d):
    """CDF of the kernel's size profile over sizes 1 .. d-1 as a list,
    normalised as Generator.choice(sizes, p=...) normalises it."""
    sizes = np.arange(1, d)
    size_probs = np.array([(d - 1) / (s * (d - s)) for s in sizes])
    size_probs = size_probs / size_probs.sum()
    cdf = size_probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _pick_size(cdf, u):
    """The coalition size a uniform draw ``u`` in [0, 1) picks: the
    inverse-CDF draw of Generator.choice(sizes, p=...)."""
    return bisect_right(cdf, u) + 1


def _lemire_may_reject(products, bounds):
    """Whether Lemire's method might reject one of the bounded draws whose
    32-bit draw times its bound is ``products``: it redraws when the low
    word is below 2**32 mod bound, and that is below bound."""
    return bool(((products & 0xFFFFFFFF) < bounds).any())


def _replayed_coalitions(d, n_samples, cdf, bit_generator):
    """The rows the loop of ``_sample_coalitions`` draws from a Generator
    on the fresh PCG64 ``bit_generator``, replayed from one block of its raw
    64-bit words; None when a bounded draw might have been rejected and
    redrawn.

    Generator.choice consumes the stream thus. A size draw takes one word,
    ``(w >> 11) * 2**-53``. A draw in 0 .. j takes one 32-bit half, the low
    half of a fresh word or the high half left over from the last one, and
    is ``(x * (j + 1)) >> 32`` (Lemire). ``choice(d, s, replace=False)``
    makes s such draws for Floyd's algorithm, draw j in 0 .. j for j = d-s
    .. d-1 and take j itself when the draw is already in the set, then s-1
    more for a shuffle that leaves the set as it is. So coalition i takes
    ``1 + s_i - (i & 1)`` words, and the halves of all coalitions, in
    stream order, are the words that are not size draws.
    """
    words = bit_generator.random_raw(n_samples * d)    # 1 + s <= d words a coalition
    raw = memoryview(words)
    sizes = []
    at = 0
    for i in range(n_samples):
        s = _pick_size(cdf, (raw[at] >> 11) * 2.0**-53)
        sizes.append(s)
        at += 1 + s - (i & 1)
    size = np.array(sizes)
    taken = 1 + size - np.arange(n_samples) % 2        # words of each coalition
    bounded = np.ones(at, dtype=bool)
    bounded[np.cumsum(taken) - taken] = False
    halves = words[:at][bounded].astype("<u8", copy=False).view("<u4")
    del raw, words   # free the block, as large as the rows, before they are built

    # largest coalitions first, so that the coalitions a step draws for are
    # the first n of order; n_at_least[k] of them have size >= k
    first = np.cumsum(2 * size - 1) - (2 * size - 1)   # first half of each coalition
    order = np.argsort(-size, kind="stable")
    shuffle_at = (first + size)[order]                 # first half after Floyd's draws
    sorted_size = size[order].astype(np.uint64)
    n_at_least = np.bincount(sizes, minlength=d + 1)[::-1].cumsum()[::-1].tolist()
    chosen = np.zeros((n_samples, d), dtype=bool)
    for j in range(1, d):
        # Floyd's draw in 0 .. j, for coalitions of size >= d - j
        n = n_at_least[d - j]
        products = halves[shuffle_at[:n] + (j - d)] * np.uint64(j + 1)
        if _lemire_may_reject(products, j + 1):
            return None
        picked = (products >> 32).astype(np.intp)
        rows = order[:n]
        chosen[rows, np.where(chosen[rows, picked], j, picked)] = True
        # shuffle draw j - 1, in 0 .. s - j, for coalitions of size >= j + 1
        n = n_at_least[j + 1]
        bounds = sorted_size[:n] - (j - 1)
        if _lemire_may_reject(halves[shuffle_at[:n] + (j - 1)] * bounds, bounds):
            return None
    return chosen.astype(float)


def _sample_coalitions(d, n_samples, seed):
    """n_samples random proper coalitions as 0/1 rows: a size drawn from
    the kernel's size profile, then that many distinct features, bit for
    bit as ``default_rng(seed)`` draws them with ``random`` and ``choice``.

    The rows are replayed from one block of raw words; where the replay
    cannot vouch for a draw, a fresh generator draws them coalition by
    coalition.
    """
    cdf = _size_cdf(d)
    Z = _replayed_coalitions(d, n_samples, cdf, np.random.default_rng(seed).bit_generator)
    if Z is not None:
        return Z
    rng = np.random.default_rng(seed)
    Z = np.zeros((n_samples, d))
    for i in range(n_samples):
        Z[i, rng.choice(d, size=_pick_size(cdf, rng.random()), replace=False)] = 1.0
    return Z


def _check_sampling(d, n_samples, seed):
    """InvalidInput naming the argument unless n_samples is a non-negative
    integer of at most ``MAX_SAMPLES`` whose n_samples x d coalition entries
    stay within ``MAX_COALITION_ENTRIES``, and seed a non-negative integer;
    InsufficientData when n_samples < d + 2."""
    check_integer("n_samples", n_samples)
    if n_samples > MAX_SAMPLES:
        raise InvalidInput(f"n_samples {n_samples} exceeds the limit of {MAX_SAMPLES}")
    if n_samples * d > MAX_COALITION_ENTRIES:
        raise InvalidInput(f"n_samples {n_samples} x {d} features exceeds the limit of "
                           f"{MAX_COALITION_ENTRIES} coalition entries")
    check_integer("seed", seed)
    if n_samples < d + 2:
        raise InsufficientData(f"need at least d + 2 = {d + 2} samples")


def _mean_score(model, rows):
    return float(np.mean(decision_scores(model, rows)))


def kernel_shap(model: TrainedModel, background, instance, n_samples: int,
                seed: int = 0) -> Attribution:
    """Kernel-weighted linear regression estimate of the Shapley values.

    The all-on and all-off coalitions enter through the enforced
    local-accuracy constraint. When n_samples covers every proper coalition
    the estimate coincides with exact enumeration; otherwise ``seed`` seeds
    the coalition draw.
    """
    background, instance = _explained(background, instance)
    _check_sampling(len(instance), n_samples, seed)
    if len(background) == 0:
        raise InsufficientData("background must be non-empty")
    return _kernel_shap(model, background, instance, n_samples, seed,
                        _mean_score(model, background))


def _kernel_shap(model, background, instance, n_samples, seed, base):
    """``kernel_shap`` on checked arguments, with ``base`` the mean score of
    the background."""
    d = len(instance)
    pred = _mean_score(model, instance[None, :])

    if n_samples >= 2**d - 2:
        Z = _coalitions(d, range(1, d)).astype(float)  # (0, d) when d = 1
        weights = np.array([_kernel_weight(d, int(z.sum())) for z in Z])
    else:
        Z = _sample_coalitions(d, n_samples, seed)
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


def mean_abs_shap(model: TrainedModel, dataset, n_samples: int, seed: int = 0):
    """mean(|shap value|) per feature over all dataset rows, ranked descending;
    the dataset's rows, at most ``MAX_BACKGROUND`` of them, are the
    background.

    Returns a list of (feature_name, mean_abs_value, rank); ties keep the
    canonical feature order.
    """
    X = dataset.X
    _check_sampling(X.shape[1], n_samples, seed)
    if len(X) == 0:
        raise InsufficientData("dataset must be non-empty")
    background = X
    if len(X) > MAX_BACKGROUND:
        keep = np.random.default_rng(seed).choice(len(X), size=MAX_BACKGROUND, replace=False)
        background = X[np.sort(keep)]
    base = _mean_score(model, background)
    totals = np.zeros(X.shape[1])
    for i in range(len(X)):
        att = _kernel_shap(model, background, X[i], n_samples, int(seed) + i, base)
        totals += np.abs(att.values)
    means = totals / len(X)
    order = sorted(range(len(means)), key=lambda j: (-means[j], j))
    names = dataset.feature_names
    return [(names[j], float(means[j]), rank + 1) for rank, j in enumerate(order)]
