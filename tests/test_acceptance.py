"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from timesense import dsp, evaluate, features
from timesense.classifiers import ClassifierConfig, predict, train
from timesense.cli import EXIT_OK, main
from timesense.errors import Unsupported
from timesense.evaluate import NA, fold_seed, losocv, majority_baseline, report_matrix
from timesense.explain import exact_shapley, kernel_shap, mean_abs_shap
from timesense.model import TimeSeries
from timesense.pipeline import apply_scaler, fit_scaler
from timesense.selection import rfecv, sfs
from tests.conftest import first_features, planted_dataset


@contextmanager
def acceptance(n, capsys, detail=""):
    start = time.time()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: FAIL ({time.time() - start:.1f} s) {detail}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: PASS ({time.time() - start:.1f} s) {detail}")


def test_criterion_1_feature_formula_oracle(capsys):
    """12 non-breathing PPG features match independently derived values."""
    with acceptance(1, capsys, "PPG time-domain formulas vs hand oracle"):
        start = time.time()
        rr = [800.0, 810.0, 790.0]
        got = features.time_domain_stats(np.array(rr), np.diff(rr))
        expected = {
            "bpm": 75.0, "ibi_ms": 800.0, "sdnn_ms": 8.1650, "sdsd_ms": 15.0,
            "rmssd_ms": 15.8114, "pnn20": 0.0, "pnn50": 0.0, "hr_mad_ms": 10.0,
            "sd1_ms": 10.6066, "sd2_ms": 4.5644, "s_ms2": 152.09,
            "sd1_sd2_ratio": 2.3237,
        }
        assert len(expected) == 12
        for name, value in expected.items():
            if value == 0.0:
                assert got[name] == 0.0, name
            else:
                assert abs(got[name] - value) / abs(value) < 1e-4, name
        assert time.time() - start < 1.0


def test_criterion_2_pipeline_shape(capsys, strong_sessions, strong_dataset):
    """48 rows, 24 features, 12 LOSOCV folds, 26/22 class split."""
    with acceptance(2, capsys, "48 rows x 24 features, 12 folds, 26/22 split"):
        assert len(strong_sessions) == 48
        assert strong_dataset.X.shape == (48, 24)
        assert len(strong_dataset.participants()) == 12
        assert int(np.sum(strong_dataset.y == 0)) == 26
        assert int(np.sum(strong_dataset.y == 1)) == 22
        report = losocv(strong_dataset, ClassifierConfig("lda"), seed=0)
        assert len(report.per_fold) == 12


def test_criterion_3_separability_surrogate(capsys, strong_dataset, zero_margin_dataset):
    """Strong margins are learnable; zero margins stay near chance."""
    with acceptance(3, capsys, "strong vs zero-margin corpus accuracy bands"):
        baseline = majority_baseline(strong_dataset)
        strong = {}
        for kind in evaluate.MATRIX_KINDS:
            report = losocv(strong_dataset, ClassifierConfig(kind), seed=0)
            strong[kind] = report.mean_accuracy
        for kind in ("svc", "lda", "knn"):
            assert strong[kind] >= 0.90, (kind, strong[kind])
        for kind, acc in strong.items():
            assert acc - baseline >= 0.15, (kind, acc, baseline)
        for kind in evaluate.MATRIX_KINDS:
            report = losocv(zero_margin_dataset, ClassifierConfig(kind), seed=0)
            assert 0.3 <= report.mean_accuracy <= 0.7, (kind, report.mean_accuracy)


def test_criterion_4_kernel_shap_exactness(capsys):
    """Kernel SHAP with full enumeration equals exact Shapley; local accuracy
    holds at d = 24."""
    with acceptance(4, capsys, "kernel vs exact Shapley, d=6 and d=24"):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 6))
        y = (X[:, 0] - X[:, 4] > 0).astype(int)
        background = X[:12]
        instances = X[rng.choice(len(X), size=20, replace=False)]
        for kind in ("lr", "dtc", "gnb"):
            model = train(ClassifierConfig(kind, seed=0), X, y)
            for x in instances:
                ks = kernel_shap(model, background, x, n_samples=2**6)
                ex = exact_shapley(model, background, x)
                assert np.max(np.abs(ks.values - ex.values)) < 1e-6, kind

        X24 = rng.normal(size=(60, 24))
        y24 = (X24[:, :4].sum(axis=1) > 0).astype(int)
        model = train(ClassifierConfig("lr", seed=0), X24, y24)
        for i in range(5):
            att = kernel_shap(model, X24[:20], X24[i], n_samples=600, seed=i)
            assert att.local_accuracy_gap() < 1e-3


def test_criterion_5_rfecv_incompatibility(capsys, monkeypatch):
    """KNN/GNB/QDA with RFECV: typed error from the library, N.A. in the matrix."""
    with acceptance(5, capsys, "RFECV x {knn, gnb, qda} -> typed error / N.A."):
        ds = first_features(planted_dataset(), 5)
        for kind in ("knn", "gnb", "qda"):
            with pytest.raises(Unsupported, match="cannot drive RFECV"):
                rfecv(ds, ClassifierConfig(kind))
        monkeypatch.setattr(evaluate, "MATRIX_KINDS", ("knn", "gnb", "qda"))
        monkeypatch.setattr(evaluate, "SELECTION_MODES", ("rfecv",))
        matrix = report_matrix(ds, seed=0)
        for kind in ("knn", "gnb", "qda"):
            assert matrix[kind]["rfecv"] == NA


def test_criterion_6_planted_feature_recovery(capsys):
    """5 informative + 19 noise features: selection and SHAP find the plant."""
    with acceptance(6, capsys, "RFECV/SFS/mean-|shap| recover planted features"):
        ds = planted_dataset()
        informative = set(ds.feature_names[:5])

        res = rfecv(ds, ClassifierConfig("lr"), seed=0)
        assert len(informative & set(res.selected)) >= 4, res.selected

        res = sfs(ds, ClassifierConfig("lr"), n_features=12, seed=0)
        assert len(informative & set(res.selected)) >= 4, res.selected

        model = train(ClassifierConfig("lr", seed=0), ds.X, ds.y)
        ranking = mean_abs_shap(model, ds, n_samples=256, seed=0)
        assert ranking[0][0] in informative, ranking[0]


def test_criterion_7_leakage_guards(capsys):
    """Per-fold scaler statistics and selection results equal independent
    oracles computed from explicit training indices."""
    with acceptance(7, capsys, "12 folds x 3 scalers bit-identical to oracles"):
        ds = first_features(planted_dataset(), 6)
        selection = ("sfs", {"n_features": 2})
        for method in ("none", "minmax", "zscore"):
            report = losocv(ds, ClassifierConfig("lr"), scaler_method=method,
                            selection=selection, seed=3)
            assert len(report.per_fold) == 12
            for fold in report.per_fold:
                pid = fold.held_out_participant
                mask = ds.participant_ids != pid
                train_rows = ds.select_rows(mask)
                test_rows = ds.select_rows(~mask)
                s = fold_seed(3, pid)

                scaler = fit_scaler(train_rows.X, method)
                if method == "none":
                    assert fold.scaler_stats == {"method": "none"}
                else:
                    assert fold.scaler_stats["stat_a"] == tuple(
                        float(v) for v in scaler.stat_a)
                    assert fold.scaler_stats["stat_b"] == tuple(
                        float(v) for v in scaler.stat_b)

                from timesense.model import Dataset
                train_scaled = Dataset(apply_scaler(scaler, train_rows.X),
                                       train_rows.y, train_rows.participant_ids,
                                       ds.feature_names)
                cfg = ClassifierConfig("lr", seed=s)
                oracle = sfs(train_scaled, cfg, n_features=2, seed=s)
                assert fold.selected_feature_names == oracle.selected

                idx = [ds.feature_names.index(n) for n in oracle.selected]
                model = train(cfg, train_scaled.X[:, idx], train_scaled.y)
                preds = predict(model, apply_scaler(scaler, test_rows.X)[:, idx])
                assert tuple(int(v) for v in preds) == fold.predictions


def test_criterion_8_dsp_checks(capsys):
    """Bandpass stop/pass behaviour and Fourier-resampling fidelity."""
    with acceptance(8, capsys, "bandpass 30 dB / 1 dB, resample within 1 %"):
        fs, dur = 100.0, 60.0
        t = np.arange(int(dur * fs)) / fs

        def rms(x):
            return np.sqrt(np.mean(x**2))

        stop = TimeSeries(np.sin(2 * np.pi * 0.1 * t), fs)
        out = dsp.bandpass(stop, 0.7, 3.5)
        atten_db = 20 * np.log10(rms(out.values[500:-500]) / rms(stop.values[500:-500]))
        assert atten_db <= -30.0

        keep = TimeSeries(np.sin(2 * np.pi * 1.5 * t), fs)
        out = dsp.bandpass(keep, 0.7, 3.5)
        pass_db = 20 * np.log10(rms(out.values[500:-500]) / rms(keep.values[500:-500]))
        assert abs(pass_db) <= 1.0

        t25 = np.arange(int(10 * 25.0)) / 25.0
        sine = TimeSeries(np.sin(2 * np.pi * 1.0 * t25), 25.0)
        up = dsp.resample_fourier(sine, 100.0)
        expected = np.sin(2 * np.pi * 1.0 * np.arange(len(up)) / up.sampling_rate_hz)
        err = np.max(np.abs(up.values[50:-50] - expected[50:-50]))
        assert err < 0.01


def test_criterion_9_cli_determinism(capsys, tmp_path):
    """Rerunning each CLI command with identical seeds gives identical bytes."""
    with acceptance(9, capsys, "synth/extract/evaluate/explain checksum-stable"):
        def sha(p):
            return hashlib.sha256(open(p, "rb").read()).hexdigest()

        cfg = tmp_path / "config.json"
        # all four settings so both classes appear in every training fold
        cfg.write_text(json.dumps({
            "participants": 2, "sessions_per_participant": 4,
            "baseline_s": 20.0, "task_s": 60.0, "n_slow_biased": 0,
        }))
        sums = {}
        for run in ("a", "b"):
            base = tmp_path / run
            assert main(["synth", "--config", str(cfg),
                         "--out", str(base / "data"), "--seed", "11"]) == EXIT_OK
            assert main(["extract", "--manifest", str(base / "data" / "manifest.json"),
                         "--out", str(base / "features.csv")]) == EXIT_OK
            assert main(["evaluate", "--features", str(base / "features.csv"),
                         "--classifier", "lda", "--seed", "4",
                         "--out", str(base / "report.json")]) == EXIT_OK
            assert main(["explain", "--features", str(base / "features.csv"),
                         "--classifier", "lr", "--seed", "4", "--n-samples", "64",
                         "--out", str(base / "ranking.csv")]) == EXIT_OK
            sums[run] = [sha(base / "data" / "manifest.json"),
                         sha(base / "features.csv"),
                         sha(base / "report.json"),
                         sha(base / "ranking.csv")]
        assert sums["a"] == sums["b"]
