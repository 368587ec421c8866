"""Feature selection: greedy sequential selection and recursive feature
elimination sized by cross-validated accuracy. Selections over the same
columns run in lockstep (``sfs_many``, ``rfecv_many``), one batched fit a
step."""

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierConfig, importance, predict, trained_lanes
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


class _InnerFolds:
    """The inner cross-validation of one selection problem: its config, its
    labels y, the test rows of each non-empty fold of ``folds`` and the
    mask of the rows that train on each. InsufficientData when a fold's
    training rows lack a class."""

    def __init__(self, config, y, folds):
        self.config, self.y = config, y
        self.tests = [t for t in folds if len(t)]
        self.masks = []
        for test_idx in self.tests:
            train_mask = np.ones(len(y), dtype=bool)
            train_mask[test_idx] = False
            if len(np.unique(y[train_mask])) < 2:
                raise InsufficientData("a training fold lacks both classes")
            self.masks.append(train_mask)


def _scores(problems, candidates, all_rows=False):
    """Per problem, the mean test-fold accuracy of each of its candidate
    feature matrices (``candidates[p]`` for problem p, each of its rows)
    and, with ``all_rows``, the importances of the model of all its rows on
    its last candidate (else None).

    Every (problem, candidate, fold) model is one lane of one
    ``trained_lanes`` call, and each is scored as soon as its block is
    fitted: only its count of hits outlives it. A fold's accuracy is that
    count over its rows, the correctly rounded quotient ``np.mean`` gives
    too.
    """
    lanes, configs, held_out = [], [], []
    for problem, matrices in zip(problems, candidates):
        for X in matrices:
            for train_mask, test_idx in zip(problem.masks, problem.tests):
                lanes.append((X[train_mask], problem.y[train_mask]))
                held_out.append((X[test_idx], problem.y[test_idx]))
        configs += [problem.config] * (len(matrices) * len(problem.tests))
    if all_rows:
        lanes += [(matrices[-1], problem.y) for problem, matrices in zip(problems, candidates)]
        configs += [problem.config for problem in problems]
    hits, importances = np.zeros(len(held_out), dtype=int), [None] * len(problems)
    for i, model in trained_lanes(configs, lanes):
        if i < len(held_out):
            X, y = held_out[i]
            hits[i] = np.count_nonzero(predict(model, X) == y)
        else:
            importances[i - len(held_out)] = importance(model)
    scores, start = [], 0
    for problem, matrices in zip(problems, candidates):
        stop = start + len(matrices) * len(problem.tests)
        accs = hits[start:stop].reshape(len(matrices), -1) / [len(t) for t in problem.tests]
        scores.append([float(np.mean(a)) for a in accs])
        start = stop
    return scores, importances


def cv_accuracy(config: ClassifierConfig, candidates, y, folds):
    """Mean accuracy over the given test folds of each candidate feature
    matrix; every (candidate, fold) model is one lane of one
    ``trained_lanes`` call."""
    return _scores([_InnerFolds(config, y, folds)], [candidates])[0][0]


def _problems(selections):
    """The ``_InnerFolds`` of each (dataset, config, seed) in turn: the
    first that fails raises, before any fit."""
    return [_InnerFolds(config, dataset.y, stratified_kfold(dataset.y, seed))
            for dataset, config, seed in selections]


def sfs_many(selections, n_features: int) -> list:
    """``sfs`` of each (dataset, config, seed) of ``selections``, whose
    datasets share their feature names: step k of every selection is one
    batched fit of all their (candidate, fold) models. No selections give
    none."""
    check_integer("n_features", n_features)
    if not selections:
        return []
    names = list(selections[0][0].feature_names)
    d = len(names)
    if not 1 <= n_features <= d:
        raise InvalidInput("n_features out of range")
    problems = _problems(selections)
    chosen = [[] for _ in problems]
    traces = [[] for _ in problems]
    for _ in range(n_features):
        choices = [[j for j in range(d) if j not in current] for current in chosen]
        candidates = [[dataset.X[:, sorted(current + [j])] for j in js]
                      for (dataset, _, _), current, js in zip(selections, chosen, choices)]
        scores = _scores(problems, candidates)[0]
        for current, trace, js, step in zip(chosen, traces, choices, scores):
            best_score, best_choice = -1.0, None
            for j, score in zip(js, step):
                if score > best_score:
                    best_score, best_choice = score, j
            current.append(best_choice)
            trace.append((tuple(names[i] for i in sorted(current)), best_score))
    return [SelectionResult(tuple(names[i] for i in sorted(current)), tuple(trace))
            for current, trace in zip(chosen, traces)]


def sfs(dataset, config: ClassifierConfig, n_features: int, seed: int = 0) -> SelectionResult:
    """Greedy forward selection by stratified-CV accuracy.

    Ties between candidates resolve to the earliest feature in canonical
    order (candidates are scanned in that order and only a strictly better
    score replaces the incumbent). The one-selection case of ``sfs_many``.
    """
    return sfs_many([(dataset, config, seed)], n_features)[0]


def rfecv_many(selections) -> list:
    """``rfecv`` of each (dataset, config, seed) of ``selections``, whose
    datasets share their feature names: round k of every selection is one
    batched fit of all their fold models and all-rows models. No selections
    give none."""
    if not selections:
        return []
    for _, config, _ in selections:
        if not config.supports_importance():
            raise Unsupported(
                f"{config.kind} cannot drive RFECV: no feature-importance measure")
    names = list(selections[0][0].feature_names)
    problems = _problems(selections)
    kept = [list(range(len(names))) for _ in problems]
    traces = [[] for _ in problems]
    while True:
        last = len(kept[0]) <= 1
        # the model of all rows, whose importances pick the feature to drop,
        # trains in the same batch as the fold models
        candidates = [[dataset.X[:, cols]] for (dataset, _, _), cols in zip(selections, kept)]
        scores, importances = _scores(problems, candidates, all_rows=not last)
        for cols, trace, (score,), imp in zip(kept, traces, scores, importances):
            trace.append((tuple(names[i] for i in cols), score))
            if not last:
                del cols[min(range(len(cols)), key=lambda i: (imp[i], -cols[i]))]
        if last:
            break
    # each selection's best-scoring set; a tie goes to the smaller set
    return [SelectionResult(max(trace, key=lambda entry: (entry[1], -len(entry[0])))[0],
                            tuple(trace)) for trace in traces]


def rfecv(dataset, config: ClassifierConfig, seed: int = 0) -> SelectionResult:
    """Recursive feature elimination; final cardinality maximizes CV accuracy.

    Each round trains on the full data over the surviving features and drops
    the lowest-importance one (importance ties drop the feature later in
    canonical order), down to one feature. Cardinality ties resolve to the
    smaller set. The one-selection case of ``rfecv_many``.
    """
    return rfecv_many([(dataset, config, seed)])[0]
