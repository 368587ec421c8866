import gc
import weakref

import numpy as np
import pytest

from timesense import evaluate
from timesense import selection as selection_module
from timesense.classifiers import base
from timesense.classifiers.linear import LogisticRegressionNewton
from timesense.classifiers import ClassifierConfig
from timesense.errors import InsufficientData, InvalidInput, Unsupported
from timesense.evaluate import (
    MANUAL_SUBSETS,
    NA,
    accuracy,
    fold_seed,
    losocv,
    majority_baseline,
    report_matrix,
    report_to_jsonable,
)
from timesense.model import EDA_FEATURES, PPG_FEATURES, Dataset
from timesense.pipeline import apply_scaler, fit_scaler
from timesense.selection import sfs
from timesense.classifiers import predict as clf_predict, train as clf_train
from timesense.model import EvaluationReport, FoldResult
from tests.conftest import first_features
from tests.test_selection import reference_rfecv, reference_sfs


class TestBasics:
    def test_accuracy_examples(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75
        assert accuracy([0], [0]) == 1.0
        with pytest.raises(InvalidInput, match="length mismatch"):
            accuracy([1], [1, 0])
        with pytest.raises(InsufficientData, match="empty prediction"):
            accuracy([], [])

    def test_majority_baseline_26_22(self):
        y = np.array([0] * 26 + [1] * 22)
        X = np.zeros((48, 2))
        ds = Dataset(X, y, np.arange(48) % 12 + 1, ("a", "b"))
        assert majority_baseline(ds) == pytest.approx(26 / 48)
        assert majority_baseline(ds) == pytest.approx(0.5417, abs=1e-4)

    def test_manual_subsets(self):
        assert MANUAL_SUBSETS["ppg"] == PPG_FEATURES
        assert len(MANUAL_SUBSETS["ppg"]) == 13
        assert MANUAL_SUBSETS["ppg+eda"] == PPG_FEATURES + EDA_FEATURES
        assert len(MANUAL_SUBSETS["ppg+eda"]) == 19

    def test_fold_seed_unique_per_participant(self):
        seeds = {fold_seed(7, pid) for pid in range(1, 13)}
        assert len(seeds) == 12
        assert fold_seed(7, 3) != fold_seed(8, 3)


class TestLosocv:
    def test_folds_cover_each_participant_once(self, planted):
        report = losocv(planted, ClassifierConfig("lr"), seed=0)
        held = [f.held_out_participant for f in report.per_fold]
        assert sorted(held) == sorted(planted.participants())

    def test_mean_consistency(self, planted):
        report = losocv(planted, ClassifierConfig("lr"), seed=0)
        mean = np.mean([f.accuracy for f in report.per_fold])
        assert report.mean_accuracy == pytest.approx(mean, abs=1e-12)

    def test_strong_signal_high_accuracy(self, planted):
        report = losocv(planted, ClassifierConfig("lr"), seed=0)
        assert report.mean_accuracy >= 0.9

    def test_single_participant_rejected(self):
        X = np.random.default_rng(0).normal(size=(8, 3))
        y = np.tile([0, 1], 4)
        ds = Dataset(X, y, np.ones(8, dtype=int), ("a", "b", "c"))
        with pytest.raises(InsufficientData, match="at least 2 participants"):
            losocv(ds, ClassifierConfig("lr"))

    def test_unknown_selection_mode_rejected(self, planted):
        with pytest.raises(InvalidInput, match="unknown selection mode 'bogus'"):
            losocv(planted, ClassifierConfig("lr"), selection=("bogus", None))

    @pytest.mark.parametrize("spec,message", [
        (("sfs", {"n_feature": 2}), "only sfs takes a key, n_features"),
        (("rfecv", {"anything": 1}), "only sfs takes a key, n_features"),
        (("none", {"n_features": 2}), "only sfs takes a key, n_features"),
        ("sfs", "a (mode, params) pair"),
        (("sfs",), "a (mode, params) pair"),
        (("sfs", [1]), "a (mode, params) pair"),
        (("sfs", None, None), "a (mode, params) pair"),
        (["sfs", None], "a (mode, params) pair")], ids=repr)
    def test_a_malformed_selection_is_refused_before_the_first_fold(
            self, planted, monkeypatch, spec, message):
        def fold(*args):
            raise AssertionError("a fold ran")

        monkeypatch.setattr(evaluate, "fit_scaler", fold)
        with pytest.raises(InvalidInput) as raised:
            losocv(planted, ClassifierConfig("lr"), selection=spec)
        assert message in str(raised.value) and repr(spec) in str(raised.value)
        assert "\n" not in str(raised.value)

    def test_a_dataset_without_features_is_refused(self, planted):
        with pytest.raises(InvalidInput, match="at least one feature column"):
            losocv(first_features(planted, 0), ClassifierConfig("lr"))

    @pytest.mark.parametrize("mode,missing", [
        ("ppg", PPG_FEATURES[6:]), ("ppg+eda", PPG_FEATURES[6:] + EDA_FEATURES)])
    def test_a_manual_subset_names_the_features_it_lacks(self, planted, mode, missing):
        sub = first_features(planted, 6)
        with pytest.raises(InvalidInput) as raised:
            losocv(sub, ClassifierConfig("lr"), selection=(mode, None))
        assert str(raised.value) == (
            f"selection {mode!r} needs features the dataset lacks: " + ", ".join(missing))

    def test_a_non_integer_sfs_size_is_refused(self, planted):
        with pytest.raises(InvalidInput, match="n_features must be an integer, got 2.5"):
            losocv(first_features(planted, 4), ClassifierConfig("lr"),
                   selection=("sfs", {"n_features": 2.5}))

    def test_leakage_oracle(self, planted):
        """Each fold's result is bit-identical to an isolated manual run that
        never sees the held-out rows."""
        for method in ("none", "minmax", "zscore"):
            report = losocv(planted, ClassifierConfig("lr"), scaler_method=method,
                            seed=3)
            for fold in report.per_fold:
                pid = fold.held_out_participant
                mask = planted.participant_ids == pid
                train_rows = planted.select_rows(~mask)
                test_rows = planted.select_rows(mask)
                scaler = fit_scaler(train_rows.X, method)
                cfg = ClassifierConfig("lr", seed=fold_seed(3, pid))
                model = clf_train(cfg, apply_scaler(scaler, train_rows.X), train_rows.y)
                preds = clf_predict(model, apply_scaler(scaler, test_rows.X))
                assert tuple(int(v) for v in preds) == fold.predictions
                assert fold.accuracy == accuracy(preds, test_rows.y)

    def test_scaler_fitted_per_fold_excludes_test_rows(self, planted):
        report = losocv(planted, ClassifierConfig("lr"), scaler_method="minmax",
                        seed=0)
        for fold in report.per_fold:
            mask = planted.participant_ids != fold.held_out_participant
            expected_min = planted.X[mask].min(axis=0)
            assert np.allclose(fold.scaler_stats["stat_a"], expected_min)

    def test_selection_runs_on_training_rows_only(self, planted):
        """Each fold's SFS pick is SFS's pick on that fold's scaled training
        rows alone."""
        sub = first_features(planted, 6)
        report = losocv(sub, ClassifierConfig("lr"), selection=("sfs", {"n_features": 2}),
                        seed=0)
        for fold in report.per_fold:
            pid = fold.held_out_participant
            rows = sub.select_rows(sub.participant_ids != pid)
            scaled = Dataset(apply_scaler(fit_scaler(rows.X, "minmax"), rows.X), rows.y,
                             rows.participant_ids, rows.feature_names)
            s = fold_seed(0, pid)
            expected = sfs(scaled, ClassifierConfig("lr", seed=s), n_features=2, seed=s)
            assert fold.selected_feature_names == expected.selected

    def test_shuffled_labels_near_chance(self, planted):
        rng = np.random.default_rng(0)
        y = planted.y.copy()
        rng.shuffle(y)
        ds = Dataset(planted.X, y, planted.participant_ids, planted.feature_names)
        report = losocv(ds, ClassifierConfig("lr"), seed=0)
        assert 0.2 <= report.mean_accuracy <= 0.8

    def test_deterministic(self, planted):
        a = losocv(planted, ClassifierConfig("lr"), seed=5)
        b = losocv(planted, ClassifierConfig("lr"), seed=5)
        assert a == b


class TestReportMatrix:
    def test_na_cells_for_importance_incapable_kinds(self, planted, monkeypatch):
        sub = first_features(planted, 4)
        monkeypatch.setattr(evaluate, "MATRIX_KINDS", ("knn", "gnb", "qda", "lr"))
        monkeypatch.setattr(evaluate, "SELECTION_MODES", ("none", "rfecv"))
        matrix = report_matrix(sub, seed=0)
        for kind in ("knn", "gnb", "qda"):
            assert matrix[kind]["rfecv"] == NA
            assert isinstance(matrix[kind]["none"], float)
        assert isinstance(matrix["lr"]["rfecv"], float)

    def test_report_jsonable_round_trips_through_json(self, planted):
        import json
        report = losocv(planted, ClassifierConfig("lr"), seed=0)
        doc = report_to_jsonable(report)
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text)["mean_accuracy"] == report.mean_accuracy
        assert doc["schema_version"] == 1


def reference_losocv(dataset, config, scaler_method="minmax", selection=None, seed=0):
    """``losocv`` as it was before its folds were trained in one batch: one
    ``train`` per fold, and the per-fit selection loops."""
    folds = []
    for pid in dataset.participants():
        pid = int(pid)
        s = fold_seed(seed, pid)
        test_mask = dataset.participant_ids == pid
        train_rows, test_rows = dataset.select_rows(~test_mask), dataset.select_rows(test_mask)
        scaler = fit_scaler(train_rows.X, scaler_method)
        train_scaled = Dataset(apply_scaler(scaler, train_rows.X), train_rows.y,
                               train_rows.participant_ids, train_rows.feature_names)
        test_X = apply_scaler(scaler, test_rows.X)
        cfg = ClassifierConfig(config.kind, seed=s)
        mode, params = selection or ("none", None)
        if mode == "sfs":
            selected = reference_sfs(train_scaled, cfg, params["n_features"], seed=s).selected
        elif mode == "rfecv":
            selected = reference_rfecv(train_scaled, cfg, seed=s).selected
        else:
            selected = tuple(dataset.feature_names)
        idx = [dataset.feature_names.index(n) for n in selected]
        model = clf_train(cfg, train_scaled.X[:, idx], train_scaled.y)
        preds = clf_predict(model, test_X[:, idx])
        stats = {"method": scaler.method,
                 "stat_a": tuple(float(v) for v in scaler.stat_a),
                 "stat_b": tuple(float(v) for v in scaler.stat_b)}
        folds.append(FoldResult(pid, accuracy(preds, test_rows.y), tuple(selected), stats,
                                tuple(int(v) for v in preds),
                                tuple(int(v) for v in test_rows.y)))
    return EvaluationReport(tuple(folds))


class TestBatchedLosocvMatchesPerFitReference:
    """Participants of 5, 4 and 6 rows give folds of different sizes; every
    fold's model, and every model of a selection step, is one lane of a
    batch."""

    @staticmethod
    def dataset():
        rng = np.random.default_rng(4)
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1])
        X = np.round(rng.normal(size=(15, 3)) + 0.7 * y[:, None] * rng.random(3), 1)
        return Dataset(X, y, np.repeat([1, 2, 3], [5, 4, 6]), ("a", "b", "c"))

    # each booster runs through one selection mode; tests/test_selection.py
    # compares SFS and RFECV themselves for all four kinds. The selections
    # of the three folds advance in lockstep, one batched fit a step.
    @pytest.mark.parametrize("kind,mode", [
        ("rf", "none"), ("gb", "none"), ("xgb", "none"), ("lr", "none"),
        ("rf", "sfs"), ("gb", "sfs"), ("lr", "sfs"), ("lda", "sfs"), ("svc", "sfs"),
        ("lr", "sfs-2"),
        ("rf", "rfecv"), ("xgb", "rfecv"), ("lr", "rfecv"), ("lda", "rfecv"), ("dtc", "rfecv")])
    def test_reports_equal(self, kind, mode):
        ds = self.dataset()
        config = ClassifierConfig(kind)
        selection = {"none": None, "sfs": ("sfs", {"n_features": 1}),
                     "sfs-2": ("sfs", {"n_features": 2}), "rfecv": ("rfecv", None)}[mode]
        got = losocv(ds, config, selection=selection, seed=3)
        assert got == reference_losocv(ds, config, selection=selection, seed=3)
        assert len({len(f.predictions) for f in got.per_fold}) == 3


def participants_dataset(n_participants, d=3, rows=4, seed=0):
    """``n_participants`` of ``rows`` rows each, both classes in each, of
    ``d`` weakly informative features."""
    rng = np.random.default_rng(seed)
    y = np.tile([0, 1], n_participants * rows // 2)
    X = rng.normal(size=(len(y), d)) + 0.8 * y[:, None]
    return Dataset(X, y, np.repeat(np.arange(1, n_participants + 1), rows),
                   tuple(f"f{j}" for j in range(d)))


def count_fits(monkeypatch):
    """The number of batched fits (``_training_lanes`` calls) so far, as a
    one-element list."""
    calls = [0]
    original = base._training_lanes

    def counted(lanes):
        calls[0] += 1
        return original(lanes)

    monkeypatch.setattr(base, "_training_lanes", counted)
    return calls


class TestLockstepSelection:
    """The selections of all outer folds advance together: one batched fit
    per SFS step or RFECV round, whatever the number of participants, plus
    the one that trains every fold's final model."""

    @pytest.mark.parametrize("participants", [3, 5])
    @pytest.mark.parametrize("selection,fits", [
        (("rfecv", None), 3 + 1), (("sfs", {"n_features": 1}), 1 + 1),
        (("sfs", {"n_features": 2}), 2 + 1)], ids=["rfecv", "sfs-1", "sfs-2"])
    def test_one_batched_fit_a_step(self, monkeypatch, participants, selection, fits):
        calls = count_fits(monkeypatch)
        losocv(participants_dataset(participants), ClassifierConfig("lr"), selection=selection)
        assert calls[0] == fits

    @pytest.mark.parametrize("selection", [("rfecv", None), ("sfs", {"n_features": 2})],
                             ids=["rfecv", "sfs-2"])
    def test_models_of_earlier_blocks_are_let_go(self, monkeypatch, selection):
        """Each block's models are scored as soon as it is fitted; when the
        models of a block are scored, those of every earlier block are
        collectable."""
        blocks = []
        fit_many = LogisticRegressionNewton.fit_many

        def recorded(models, lanes):
            fit_many(models, lanes)
            blocks.append([weakref.ref(m) for m in models])

        monkeypatch.setattr(LogisticRegressionNewton, "fit_many", staticmethod(recorded))
        # a few lanes a block
        monkeypatch.setattr("timesense.classifiers.lanes.FIT_BLOCK", 40)
        scored = []
        score = selection_module.predict

        def checked(model, X):
            gc.collect()
            assert all(ref() is None for block in blocks[:-1] for ref in block)
            assert any(ref() is model.estimator for ref in blocks[-1])
            scored.append(len(blocks))
            return score(model, X)

        monkeypatch.setattr(selection_module, "predict", checked)
        losocv(participants_dataset(4), ClassifierConfig("lr"), selection=selection)
        # models were scored after several different blocks
        assert len(set(scored)) > 3

    @staticmethod
    def two_failing_folds():
        """Participants 2 and 3 hold the only two fast rows: without either
        one, a fold's training rows hold one fast row, which one inner
        training fold lacks. Without participant 1 or 4 both remain."""
        y = np.array([0, 0, 0, 0,  0, 0, 1, 0,  0, 1, 0, 0,  0, 0, 0, 0])
        X = np.random.default_rng(2).normal(size=(16, 3))
        return Dataset(X, y, np.repeat([1, 2, 3, 4], 4), ("a", "b", "c"))

    @pytest.mark.parametrize("selection", [("rfecv", None), ("sfs", {"n_features": 1})],
                             ids=["rfecv", "sfs-1"])
    def test_the_first_failing_fold_raises_before_any_fit(self, monkeypatch, selection):
        calls = count_fits(monkeypatch)
        seeds = []
        folds = selection_module.stratified_kfold

        def recorded(y, seed):
            seeds.append(seed)
            return folds(y, seed)

        monkeypatch.setattr(selection_module, "stratified_kfold", recorded)
        with pytest.raises(InsufficientData, match="a training fold lacks both classes"):
            losocv(self.two_failing_folds(), ClassifierConfig("lr"), selection=selection,
                   seed=3)
        # participant 1's problem passes, participant 2's raises; 3's is not built
        assert seeds == [fold_seed(3, 1), fold_seed(3, 2)]
        assert calls[0] == 0

    def test_a_kind_without_importance_raises_before_any_fit(self, monkeypatch):
        calls = count_fits(monkeypatch)
        with pytest.raises(Unsupported) as raised:
            losocv(self.two_failing_folds(), ClassifierConfig("svc"),
                   selection=("rfecv", None))
        assert str(raised.value) == "svc cannot drive RFECV: no feature-importance measure"
        assert calls[0] == 0
