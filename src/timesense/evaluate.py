"""Leave-one-subject-out evaluation, baselines and the classifier-by-selection
accuracy matrix."""

import numpy as np

from .classifiers import KINDS, ClassifierConfig, predict, train_many
from .errors import InsufficientData, InvalidInput, check_integer, finite_array
from .model import (
    EDA_FEATURES,
    PPG_FEATURES,
    Dataset,
    EvaluationReport,
    FoldResult,
)
from .pipeline import apply_scaler, fit_scaler
from .selection import rfecv_many, sfs_many

NA = "N.A."
# The schema of a report's JSON document (``report_to_jsonable``) and of the
# accuracy matrix's (``report_matrix`` with its settings).
REPORT_SCHEMA_VERSION = 1
MATRIX_SCHEMA_VERSION = 1

MANUAL_SUBSETS = {
    "ppg": PPG_FEATURES,
    "ppg+eda": PPG_FEATURES + EDA_FEATURES,
}

SELECTION_MODES = ("none", "sfs", "rfecv", "ppg", "ppg+eda")

# Row order of the accuracy matrix.
MATRIX_KINDS = KINDS


def accuracy(predicted, actual) -> float:
    predicted = finite_array("predicted", predicted, 1)
    actual = finite_array("actual", actual, 1)
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


def _selection_mode(selection):
    """The mode and params of a ``losocv`` selection spec; InvalidInput
    naming the spec unless it is well formed."""
    if selection is None:
        return "none", {}
    if not (isinstance(selection, tuple) and len(selection) == 2
            and (selection[1] is None or isinstance(selection[1], dict))):
        raise InvalidInput(f"selection must be None or a (mode, params) pair with params "
                           f"None or a dict, got {selection!r}")
    mode, params = selection[0], selection[1] or {}
    if mode not in SELECTION_MODES:
        raise InvalidInput(f"unknown selection mode {mode!r}")
    if set(params) - ({"n_features"} if mode == "sfs" else set()):
        raise InvalidInput(f"selection {selection!r}: only sfs takes a key, n_features")
    return mode, params


def _selections(mode, params, folds):
    """The selected feature names of each fold, given as its scaled
    training rows, config and seed; SFS and RFECV run every fold in
    lockstep."""
    names = tuple(folds[0][0].feature_names)
    if mode == "none":
        return [names] * len(folds)
    if mode in MANUAL_SUBSETS:
        missing = [n for n in MANUAL_SUBSETS[mode] if n not in names]
        if missing:
            raise InvalidInput(f"selection {mode!r} needs features the dataset lacks: "
                               + ", ".join(missing))
        return [MANUAL_SUBSETS[mode]] * len(folds)
    if mode == "sfs":
        results = sfs_many(folds, params.get("n_features", 12))
    else:
        results = rfecv_many(folds)
    return [r.selected for r in results]


def losocv(dataset: Dataset, config: ClassifierConfig, scaler_method: str = "minmax",
           selection=None, seed: int = 0) -> EvaluationReport:
    """Leave-one-subject-out protocol.

    Per fold: fit the scaler on training rows only, run the optional feature
    selection on training rows only, train, then score the held-out
    participant. Every fold's scaler is fitted first; then the selections
    of all folds run in lockstep (``selection.sfs_many``,
    ``selection.rfecv_many``), and one ``train_many`` call trains every
    fold's model. ``selection`` is None or a (mode, params) pair with mode
    in SELECTION_MODES; params is None, or for 'sfs' may hold
    ``n_features`` (default 12). A malformed spec or seed is refused before
    the first fold; of the folds whose selection fails, the first in
    participant order raises, before any fit.
    """
    check_integer("seed", seed)
    mode, params = _selection_mode(selection)
    participants = dataset.participants()
    if len(participants) < 2:
        raise InsufficientData("need at least 2 participants")
    folds, trains = [], []
    for pid in participants:
        pid = int(pid)
        s = fold_seed(seed, pid)
        test_mask = dataset.participant_ids == pid
        train_rows = dataset.select_rows(~test_mask)
        test_rows = dataset.select_rows(test_mask)

        scaler = fit_scaler(train_rows.X, scaler_method)
        train_scaled = Dataset(apply_scaler(scaler, train_rows.X), train_rows.y,
                               train_rows.participant_ids, train_rows.feature_names)
        folds.append((pid, scaler, apply_scaler(scaler, test_rows.X), test_rows.y))
        trains.append((train_scaled, ClassifierConfig(config.kind, seed=s), s))

    picks = _selections(mode, params, trains)
    columns = [[dataset.feature_names.index(n) for n in selected] for selected in picks]
    models = train_many([cfg for _, cfg, _ in trains],
                        [(rows.X[:, idx], rows.y) for (rows, _, _), idx in zip(trains, columns)])

    results = []
    for (pid, scaler, test_X, actual), selected, idx, model in zip(folds, picks, columns,
                                                                   models):
        preds = predict(model, test_X[:, idx])
        stats = {"method": scaler.method}
        if scaler.stat_a is not None:
            stats["stat_a"] = tuple(float(v) for v in scaler.stat_a)
            stats["stat_b"] = tuple(float(v) for v in scaler.stat_b)
        results.append(FoldResult(
            held_out_participant=pid,
            accuracy=accuracy(preds, actual),
            selected_feature_names=tuple(selected),
            scaler_stats=stats,
            predictions=tuple(int(v) for v in preds),
            actual=tuple(int(v) for v in actual),
        ))
    return EvaluationReport(tuple(results))


def report_matrix(dataset: Dataset, scaler_method: str = "minmax", seed: int = 0):
    """Mean LOSOCV accuracy per (classifier, selection-mode) cell: one row
    per kind of ``MATRIX_KINDS``, one column per mode of
    ``SELECTION_MODES``.

    Cells pairing RFECV with an importance-incapable classifier hold the
    literal 'N.A.' marker instead of a number.
    """
    matrix = {}
    for kind in MATRIX_KINDS:
        config = ClassifierConfig(kind, seed=seed)
        row = {}
        for mode in SELECTION_MODES:
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
