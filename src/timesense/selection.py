"""Feature selection: greedy sequential selection and recursive feature
elimination sized by cross-validated accuracy."""

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierConfig, importance, predict, train
from .errors import InsufficientData, Unsupported

# Stratified folds of the cross-validation that scores each candidate set.
CV_FOLDS = 5


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple           # ordered feature names
    trace: tuple              # per-step (candidate_set, cv_score) or (cardinality, cv_score)

    def to_jsonable(self):
        return {
            "selected": list(self.selected),
            "trace": [{"features": list(f), "cv_score": s} for f, s in self.trace],
            "cv_folds": CV_FOLDS,
        }


def stratified_kfold(y, k, seed):
    """Deterministic seeded stratified fold assignment; returns test-index lists."""
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for i, j in enumerate(idx):
            folds[i % k].append(int(j))
    return [np.array(sorted(f), dtype=int) for f in folds]


def cv_accuracy(config: ClassifierConfig, X, y, folds):
    """Mean accuracy of the classifier over the given test folds."""
    accs = []
    n = len(y)
    for test_idx in folds:
        if len(test_idx) == 0:
            continue
        train_mask = np.ones(n, dtype=bool)
        train_mask[test_idx] = False
        y_train = y[train_mask]
        if len(np.unique(y_train)) < 2:
            raise InsufficientData("a training fold lacks both classes")
        model = train(config, X[train_mask], y_train)
        accs.append(float(np.mean(predict(model, X[test_idx]) == y[test_idx])))
    return float(np.mean(accs))


def sfs(dataset, config: ClassifierConfig, n_features: int, seed: int = 0) -> SelectionResult:
    """Greedy forward selection by stratified-CV accuracy.

    Ties between candidates resolve to the earliest feature in canonical
    order (candidates are scanned in that order and only a strictly better
    score replaces the incumbent).
    """
    names = list(dataset.feature_names)
    d = len(names)
    if not 1 <= n_features <= d:
        raise ValueError("n_features out of range")
    X, y = dataset.X, dataset.y
    folds = stratified_kfold(y, CV_FOLDS, seed)

    current = []
    trace = []
    while len(current) != n_features:
        best_score, best_choice = -1.0, None
        for j in range(d):
            if j in current:
                continue
            score = cv_accuracy(config, X[:, sorted(current + [j])], y, folds)
            if score > best_score:
                best_score, best_choice = score, j
        current.append(best_choice)
        trace.append((tuple(names[i] for i in sorted(current)), best_score))
    return SelectionResult(tuple(names[i] for i in sorted(current)), tuple(trace))


def rfecv(dataset, config: ClassifierConfig, seed: int = 0) -> SelectionResult:
    """Recursive feature elimination; final cardinality maximizes CV accuracy.

    Each round trains on the full data over the surviving features and drops
    the lowest-importance one (importance ties drop the feature later in
    canonical order), down to one feature. Cardinality ties resolve to the
    smaller set.
    """
    if not config.supports_importance():
        raise Unsupported(
            f"{config.kind} cannot drive RFECV: no feature-importance measure")
    names = list(dataset.feature_names)
    X, y = dataset.X, dataset.y
    folds = stratified_kfold(y, CV_FOLDS, seed)

    cols = list(range(len(names)))
    trace = []
    sets_by_size = {}
    while True:
        score = cv_accuracy(config, X[:, cols], y, folds)
        trace.append((tuple(names[i] for i in cols), score))
        sets_by_size[len(cols)] = (score, list(cols))
        if len(cols) == 1:
            break
        imp = importance(train(config, X[:, cols], y))
        del cols[min(range(len(cols)), key=lambda i: (imp[i], -cols[i]))]

    best_size = max(sets_by_size, key=lambda sz: (sets_by_size[sz][0], -sz))
    selected = tuple(names[i] for i in sets_by_size[best_size][1])
    return SelectionResult(selected, tuple(trace))
