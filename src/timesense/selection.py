"""Feature selection: greedy sequential selection and recursive feature
elimination sized by cross-validated accuracy."""

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierConfig, importance, predict, train_many
from .errors import InsufficientData, InvalidInput, Unsupported, check_integer, check_labels

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


def stratified_kfold(y, seed):
    """Deterministic seeded stratified assignment to ``CV_FOLDS`` folds;
    returns test-index lists. Labels other than 0 and 1 are refused."""
    check_integer("seed", seed)
    y = check_labels("y", y)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(CV_FOLDS)]
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for i, j in enumerate(idx):
            folds[i % CV_FOLDS].append(int(j))
    return [np.array(sorted(f), dtype=int) for f in folds]


def _fold_lanes(candidates, y, folds):
    """The training lanes of every (candidate, fold) pair, candidate by
    candidate, and the test rows of each non-empty fold; ``candidates`` are
    feature matrices of the same rows."""
    tests = [t for t in folds if len(t)]
    masks = []
    for test_idx in tests:
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        if len(np.unique(y[train_mask])) < 2:
            raise InsufficientData("a training fold lacks both classes")
        masks.append(train_mask)
    return [(X[m], y[m]) for X in candidates for m in masks], tests


def _mean_accuracies(models, candidates, y, tests):
    """Per candidate, the mean test-fold accuracy of its models (in the
    order of ``_fold_lanes``). A fold's accuracy is its count of hits over
    its rows, the correctly rounded quotient ``np.mean`` gives too."""
    accs = [np.count_nonzero(predict(model, X[t]) == y[t]) / len(t)
            for model, (X, t) in zip(models, ((X, t) for X in candidates for t in tests))]
    k = len(tests)
    return [float(np.mean(accs[i:i + k])) for i in range(0, len(accs), k)]


def cv_accuracy(config: ClassifierConfig, candidates, y, folds):
    """Mean accuracy over the given test folds of each candidate feature
    matrix; every (candidate, fold) model is one lane of one ``train_many``
    call."""
    lanes, tests = _fold_lanes(candidates, y, folds)
    return _mean_accuracies(train_many(config, lanes), candidates, y, tests)


def sfs(dataset, config: ClassifierConfig, n_features: int, seed: int = 0) -> SelectionResult:
    """Greedy forward selection by stratified-CV accuracy.

    Ties between candidates resolve to the earliest feature in canonical
    order (candidates are scanned in that order and only a strictly better
    score replaces the incumbent).
    """
    check_integer("n_features", n_features)
    names = list(dataset.feature_names)
    d = len(names)
    if not 1 <= n_features <= d:
        raise InvalidInput("n_features out of range")
    X, y = dataset.X, dataset.y
    folds = stratified_kfold(y, seed)

    current = []
    trace = []
    while len(current) != n_features:
        best_score, best_choice = -1.0, None
        choices = [j for j in range(d) if j not in current]
        scores = cv_accuracy(config, [X[:, sorted(current + [j])] for j in choices], y, folds)
        for j, score in zip(choices, scores):
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
    folds = stratified_kfold(y, seed)

    cols = list(range(len(names)))
    trace = []
    sets_by_size = {}
    while True:
        kept = X[:, cols]
        lanes, tests = _fold_lanes([kept], y, folds)
        if len(cols) > 1:
            # the model of all rows, whose importances pick the feature to
            # drop, trains in the same batch as the fold models
            lanes.append((kept, y))
        models = train_many(config, lanes)
        score = _mean_accuracies(models[:len(tests)], [kept], y, tests)[0]
        trace.append((tuple(names[i] for i in cols), score))
        sets_by_size[len(cols)] = (score, list(cols))
        if len(cols) == 1:
            break
        imp = importance(models[-1])
        del cols[min(range(len(cols)), key=lambda i: (imp[i], -cols[i]))]

    best_size = max(sets_by_size, key=lambda sz: (sets_by_size[sz][0], -sz))
    selected = tuple(names[i] for i in sets_by_size[best_size][1])
    return SelectionResult(selected, tuple(trace))
