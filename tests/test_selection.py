import numpy as np
import pytest

from timesense.classifiers import ClassifierConfig, importance, predict, train
from timesense.errors import InsufficientData, InvalidInput, Unsupported
from timesense import selection
from timesense.model import Dataset
from timesense.selection import (
    SelectionResult,
    cv_accuracy,
    rfecv,
    rfecv_many,
    sfs,
    sfs_many,
    stratified_kfold,
)

LR = ClassifierConfig("lr", seed=0)


def single_informative_dataset(informative=3, d=8, n=60, seed=0):
    rng = np.random.default_rng(seed)
    y = np.tile([0, 1], n // 2)
    X = rng.normal(size=(n, d))
    X[:, informative] += 3.0 * y
    names = tuple(f"f{j}" for j in range(d))
    pids = np.arange(n) % 6 + 1
    return Dataset(X, y, pids, names)


class TestStratifiedKfold:
    def test_partition_properties(self):
        y = np.array([0] * 13 + [1] * 17)
        folds = stratified_kfold(y, seed=1)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx) == list(range(30))
        for f in folds:
            # each fold keeps roughly the global class balance
            assert 2 <= np.sum(y[f] == 1) <= 4

    def test_deterministic(self):
        y = np.tile([0, 1], 15)
        a = stratified_kfold(y, seed=3)
        b = stratified_kfold(y, seed=3)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))

    @pytest.mark.parametrize("label", [2, 0.5, -1, np.nan])
    def test_labels_other_than_0_or_1_refused(self, label):
        y = np.array([0, 1, 2, 2, 0, 1, 0, 1, 0, 1], dtype=float)
        y[2:4] = label
        with pytest.raises(InvalidInput, match="y must be exactly 0 or 1"):
            stratified_kfold(y, seed=0)

    def test_float_and_bool_labels_give_the_int_folds(self):
        y = np.tile([0, 1, 1], 7)
        expected = stratified_kfold(y, seed=4)
        for labels in (y.astype(float), y.astype(bool)):
            folds = stratified_kfold(labels, seed=4)
            assert all(np.array_equal(a, b) for a, b in zip(folds, expected))

    def test_single_class_folds_raise_in_cv(self):
        y = np.array([0] * 9 + [1])
        X = np.random.default_rng(0).normal(size=(10, 2))
        folds = stratified_kfold(y, seed=0)
        with pytest.raises(InsufficientData, match="lacks both classes"):
            cv_accuracy(LR, [X], y, folds)


class TestSfs:
    def test_informative_feature_selected_first(self):
        ds = single_informative_dataset(informative=7)
        res = sfs(ds, LR, n_features=1)
        assert res.selected == ("f7",)

    def test_n_features_equal_d_selects_everything(self):
        ds = single_informative_dataset(d=5)
        res = sfs(ds, LR, n_features=5)
        assert set(res.selected) == set(ds.feature_names)

    def test_duplicate_column_tie_breaks_canonical(self):
        rng = np.random.default_rng(0)
        y = np.tile([0, 1], 20)
        signal = rng.normal(size=40) + 2.0 * y
        X = np.column_stack([signal, signal, rng.normal(size=40)])
        ds = Dataset(X, y, np.arange(40) % 4 + 1, ("a", "b", "c"))
        res = sfs(ds, LR, n_features=1)
        assert res.selected == ("a",)

    def test_trace_shape_forward(self):
        ds = single_informative_dataset(d=5)
        res = sfs(ds, LR, n_features=3)
        assert len(res.trace) == 3
        sizes = [len(f) for f, _ in res.trace]
        assert sizes == [1, 2, 3]
        assert res.to_jsonable()["cv_folds"] == 5

    def test_deterministic(self):
        ds = single_informative_dataset()
        a = sfs(ds, LR, n_features=3, seed=4)
        b = sfs(ds, LR, n_features=3, seed=4)
        assert a == b

    def test_matches_brute_force_greedy_oracle(self):
        """Re-implement one forward step naively and compare."""
        ds = single_informative_dataset(d=4, n=40, seed=5)
        folds = stratified_kfold(ds.y, seed=0)
        best, best_j = -1.0, None
        for j in range(4):
            [s] = cv_accuracy(LR, [ds.X[:, [j]]], ds.y, folds)
            if s > best:
                best, best_j = s, j
        res = sfs(ds, LR, n_features=1, seed=0)
        assert res.selected == (ds.feature_names[best_j],)
        assert res.trace[0][1] == pytest.approx(best)

    def test_bad_arguments(self):
        ds = single_informative_dataset(d=4)
        with pytest.raises(InvalidInput, match="n_features out of range"):
            sfs(ds, LR, n_features=0)
        with pytest.raises(InvalidInput, match="n_features out of range"):
            sfs(ds, LR, n_features=5)

    @pytest.mark.parametrize("n_features", [2.5, 2.0, "2", True, None])
    def test_a_non_integer_n_features_is_refused_before_any_fit(self, monkeypatch, n_features):
        def no_fit(*args):
            raise AssertionError("sfs fitted before it checked n_features")

        monkeypatch.setattr(selection, "trained_lanes", no_fit)
        ds = single_informative_dataset(d=4)
        with pytest.raises(InvalidInput, match="n_features must be an integer"):
            sfs(ds, LR, n_features=n_features)

    @pytest.mark.parametrize("n_features", [np.int64(2), np.uint8(2)])
    def test_numpy_integers_are_accepted(self, n_features):
        ds = single_informative_dataset(d=4)
        assert sfs(ds, LR, n_features=n_features) == sfs(ds, LR, n_features=2)


class TestRfecv:
    def test_planted_recovery(self, planted):
        res = rfecv(planted, LR)
        informative = set(planted.feature_names[:5])
        assert len(informative & set(res.selected)) >= 4

    def test_unsupported_classifier(self, planted):
        for kind in ("knn", "gnb", "qda"):
            with pytest.raises(Unsupported, match="cannot drive RFECV"):
                rfecv(planted, ClassifierConfig(kind))
        with pytest.raises(Unsupported, match="cannot drive RFECV"):
            rfecv(planted, ClassifierConfig("svc"))

    def test_trace_cardinalities_decrease(self):
        ds = single_informative_dataset(d=6)
        res = rfecv(ds, LR)
        sizes = [len(f) for f, _ in res.trace]
        assert sizes == list(range(6, 0, -1))

    def test_deterministic(self, planted):
        a = rfecv(planted, LR, seed=2)
        b = rfecv(planted, LR, seed=2)
        assert a == b

    def test_cardinality_tie_prefers_smaller_set(self):
        # one perfectly informative feature: every surviving superset of it
        # scores 1.0, so the winner must be the smallest such set
        rng = np.random.default_rng(1)
        y = np.tile([0, 1], 20)
        X = rng.normal(size=(40, 4))
        X[:, 0] = 4.0 * y - 2.0
        ds = Dataset(X, y, np.arange(40) % 4 + 1, ("a", "b", "c", "d"))
        res = rfecv(ds, LR)
        assert res.selected == ("a",)


# ---------------------------------------------------------------------------
# Per-fit reference: the selection loops as they were before the fits of a
# step were batched, one ``train`` call per (candidate, fold) model.
# ---------------------------------------------------------------------------

def reference_cv_accuracy(config, X, y, folds):
    accs = []
    for test_idx in folds:
        if len(test_idx) == 0:
            continue
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        if len(np.unique(y[train_mask])) < 2:
            raise InsufficientData("a training fold lacks both classes")
        model = train(config, X[train_mask], y[train_mask])
        accs.append(float(np.mean(predict(model, X[test_idx]) == y[test_idx])))
    return float(np.mean(accs))


def reference_sfs(dataset, config, n_features, seed=0):
    names = list(dataset.feature_names)
    X, y = dataset.X, dataset.y
    folds = stratified_kfold(y, seed)
    current, trace = [], []
    while len(current) != n_features:
        best_score, best_choice = -1.0, None
        for j in range(len(names)):
            if j in current:
                continue
            score = reference_cv_accuracy(config, X[:, sorted(current + [j])], y, folds)
            if score > best_score:
                best_score, best_choice = score, j
        current.append(best_choice)
        trace.append((tuple(names[i] for i in sorted(current)), best_score))
    return SelectionResult(tuple(names[i] for i in sorted(current)), tuple(trace))


def reference_rfecv(dataset, config, seed=0):
    names = list(dataset.feature_names)
    X, y = dataset.X, dataset.y
    folds = stratified_kfold(y, seed)
    cols, trace, sets_by_size = list(range(len(names))), [], {}
    while True:
        score = reference_cv_accuracy(config, X[:, cols], y, folds)
        trace.append((tuple(names[i] for i in cols), score))
        sets_by_size[len(cols)] = (score, list(cols))
        if len(cols) == 1:
            break
        imp = importance(train(config, X[:, cols], y))
        del cols[min(range(len(cols)), key=lambda i: (imp[i], -cols[i]))]
    best_size = max(sets_by_size, key=lambda sz: (sets_by_size[sz][0], -sz))
    return SelectionResult(tuple(names[i] for i in sets_by_size[best_size][1]), tuple(trace))


def ragged_dataset(n=23, d=5, seed=0):
    """n rows, so that the stratified folds differ in size, of weakly
    informative features with tied values."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n) % 2)
    X = np.round(rng.normal(size=(n, d)) + 0.8 * y[:, None] * rng.random(d), 1)
    return Dataset(X, y, np.arange(n) % 4 + 1, tuple(f"f{j}" for j in range(d)))


class TestBatchedSelectionMatchesPerFitReference:
    """Every (candidate, fold) model of a step is one lane of one
    ``train_many`` call; the results equal those of one fit at a time."""

    @pytest.mark.parametrize("kind", ["rf", "gb", "xgb", "lr"])
    def test_sfs(self, kind):
        ds = ragged_dataset(seed=1)
        config = ClassifierConfig(kind, seed=3)
        assert len({len(f) for f in stratified_kfold(ds.y, 2)}) > 1
        assert sfs(ds, config, n_features=2, seed=2) == reference_sfs(ds, config, 2, seed=2)

    @pytest.mark.parametrize("kind", ["rf", "gb", "xgb", "lr"])
    def test_rfecv(self, kind):
        ds = ragged_dataset(d=4, seed=2)
        config = ClassifierConfig(kind, seed=5)
        assert rfecv(ds, config, seed=1) == reference_rfecv(ds, config, seed=1)

    @pytest.mark.parametrize("kind", ["rf", "lr"])
    def test_cv_accuracy_of_many_candidates(self, kind):
        ds = ragged_dataset(seed=3)
        folds = stratified_kfold(ds.y, 0)
        config = ClassifierConfig(kind, seed=1)
        candidates = [ds.X[:, [j]] for j in range(5)] + [ds.X[:, [0, 2]], ds.X]
        assert cv_accuracy(config, candidates, ds.y, folds) == [
            reference_cv_accuracy(config, X, ds.y, folds) for X in candidates]


@pytest.mark.parametrize("kind", ["rf", "lr", "lda"])
def test_lockstep_selections_equal_each_alone(kind):
    """Selections of datasets of different row counts, each with its own
    seed, advance in lockstep; each equals its per-fit reference."""
    selections = [(ragged_dataset(n=n, d=4, seed=s), ClassifierConfig(kind, seed=s), s)
                  for n, s in ((23, 1), (19, 2), (26, 3))]
    assert sfs_many(selections, 2) == [reference_sfs(ds, config, 2, seed=s)
                                       for ds, config, s in selections]
    assert rfecv_many(selections) == [reference_rfecv(ds, config, seed=s)
                                      for ds, config, s in selections]


def test_no_selections_give_no_results():
    assert sfs_many([], 2) == []
    assert rfecv_many([]) == []
    with pytest.raises(InvalidInput, match="n_features"):
        sfs_many([], 2.5)
