"""Leave-one-subject-out evaluation, baselines and the classifier-by-selection
accuracy matrix."""

import json

import numpy as np

from .classifiers import KINDS, ClassifierConfig, predict, train
from .errors import InsufficientData, InvalidInput
from .fileio import write_atomic
from .model import (
    EDA_FEATURES,
    PPG_FEATURES,
    Dataset,
    EvaluationReport,
    FoldResult,
)
from .pipeline import apply_scaler, fit_scaler
from .selection import rfecv, sfs

NA = "N.A."
REPORT_SCHEMA_VERSION = 1

MANUAL_SUBSETS = {
    "ppg": PPG_FEATURES,
    "ppg+eda": PPG_FEATURES + EDA_FEATURES,
}

SELECTION_MODES = ("none", "sfs", "rfecv", "ppg", "ppg+eda")

# Row order of the accuracy matrix.
MATRIX_KINDS = KINDS


def accuracy(predicted, actual) -> float:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if len(predicted) != len(actual):
        raise InvalidInput("prediction/actual length mismatch")
    if len(predicted) == 0:
        raise InsufficientData("empty prediction sequence")
    return float(np.mean(predicted == actual))


def majority_baseline(dataset: Dataset) -> float:
    if len(dataset) == 0:
        raise InsufficientData("empty dataset")
    n_fast = int(np.sum(dataset.y))
    return max(n_fast, len(dataset) - n_fast) / len(dataset)


def fold_seed(master_seed: int, participant_id: int) -> int:
    """Per-fold seed; independent of which other classifiers are evaluated."""
    return int(master_seed) * 1000003 + int(participant_id)


def _resolve_selection(selection, train_ds: Dataset, config, seed):
    """Returns the selected feature names for this fold's training rows."""
    if selection is None:
        return tuple(train_ds.feature_names)
    mode, params = selection
    if mode == "none":
        return tuple(train_ds.feature_names)
    if mode in MANUAL_SUBSETS:
        return MANUAL_SUBSETS[mode]
    if mode == "sfs":
        n_features = (params or {}).get("n_features", 12)
        return sfs(train_ds, config, n_features=n_features, seed=seed).selected
    if mode == "rfecv":
        return rfecv(train_ds, config, seed=seed).selected
    raise ValueError(f"unknown selection mode {mode!r}")


def losocv(dataset: Dataset, config: ClassifierConfig, scaler_method: str = "minmax",
           selection=None, seed: int = 0) -> EvaluationReport:
    """Leave-one-subject-out protocol.

    Per fold: fit the scaler on training rows only, run the optional feature
    selection on training rows only, train, then score the held-out
    participant. ``selection`` is None or a (mode, params) pair with mode in
    SELECTION_MODES; params is None, or for 'sfs' may hold ``n_features``
    (default 12).
    """
    participants = dataset.participants()
    if len(participants) < 2:
        raise InsufficientData("need at least 2 participants")
    folds = []
    for pid in participants:
        pid = int(pid)
        s = fold_seed(seed, pid)
        test_mask = dataset.participant_ids == pid
        train_rows = dataset.select_rows(~test_mask)
        test_rows = dataset.select_rows(test_mask)

        scaler = fit_scaler(train_rows.X, scaler_method)
        train_scaled = Dataset(apply_scaler(scaler, train_rows.X), train_rows.y,
                               train_rows.participant_ids, train_rows.feature_names)
        test_X = apply_scaler(scaler, test_rows.X)

        cfg = ClassifierConfig(config.kind, seed=s)
        selected = _resolve_selection(selection, train_scaled, cfg, s)
        idx = [dataset.feature_names.index(n) for n in selected]

        model = train(cfg, train_scaled.X[:, idx], train_scaled.y)
        preds = predict(model, test_X[:, idx])
        acc = accuracy(preds, test_rows.y)

        stats = {"method": scaler.method}
        if scaler.stat_a is not None:
            stats["stat_a"] = tuple(float(v) for v in scaler.stat_a)
            stats["stat_b"] = tuple(float(v) for v in scaler.stat_b)
        folds.append(FoldResult(
            held_out_participant=pid,
            accuracy=acc,
            selected_feature_names=tuple(selected),
            scaler_stats=stats,
            predictions=tuple(int(v) for v in preds),
            actual=tuple(int(v) for v in test_rows.y),
        ))
    return EvaluationReport(tuple(folds))


def report_matrix(dataset: Dataset, kinds=MATRIX_KINDS, settings=SELECTION_MODES,
                  scaler_method: str = "minmax", seed: int = 0):
    """Mean LOSOCV accuracy per (classifier, selection-mode) cell.

    Cells pairing RFECV with an importance-incapable classifier hold the
    literal 'N.A.' marker instead of a number.
    """
    matrix = {}
    for kind in kinds:
        config = ClassifierConfig(kind, seed=seed)
        row = {}
        for mode in settings:
            if mode == "rfecv" and not config.supports_importance():
                row[mode] = NA
                continue
            report = losocv(dataset, config, scaler_method,
                            selection=(mode, None), seed=seed)
            row[mode] = report.mean_accuracy
        matrix[kind] = row
    return matrix


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def report_to_jsonable(report: EvaluationReport):
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "mean_accuracy": report.mean_accuracy,
        "per_fold": [
            {
                "held_out_participant": f.held_out_participant,
                "accuracy": f.accuracy,
                "selected_feature_names": list(f.selected_feature_names),
                # always null: kept because report schema 1 and the
                # recorded report checksums include the key
                "per_feature_mean_abs_shap": None,
                "predictions": list(f.predictions),
                "actual": list(f.actual),
            }
            for f in report.per_fold
        ],
    }


def write_report_json(doc, path):
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
