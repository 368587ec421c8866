"""From sessions to a learning-ready dataset: task-minus-baseline rows,
train-only scaling, and label derivation from questionnaire ratings."""

import math
import os
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import InsufficientData, InvalidInput, MissingFile, finite_array
from .features import extract_all
from .fileio import write_atomic
from .model import FEATURE_NAMES, Dataset

SCALER_METHODS = ("none", "minmax", "zscore")
DATASET_SCHEMA_VERSION = 1
# A session is fast iff its participant-rescaled rating strictly exceeds this.
LABEL_THRESHOLD = 3.0


@dataclass(frozen=True)
class ScalerParams:
    method: str
    stat_a: np.ndarray = None  # min (minmax) or mean (zscore)
    stat_b: np.ndarray = None  # max (minmax) or population SD (zscore)

    def n_features(self):
        return None if self.stat_a is None else len(self.stat_a)


def fit_scaler(train_X, method: str) -> ScalerParams:
    """Fit per-feature scaling statistics on training rows only."""
    if method not in SCALER_METHODS:
        raise InvalidInput(f"unknown scaler method {method!r}")
    X = finite_array("train_X", train_X, 2)
    if len(X) < 2:
        raise InsufficientData("need at least 2 training rows to fit a scaler")
    if method == "none":
        return ScalerParams("none")
    if method == "minmax":
        return ScalerParams("minmax", X.min(axis=0), X.max(axis=0))
    return ScalerParams("zscore", X.mean(axis=0), X.std(axis=0))


def apply_scaler(params: ScalerParams, X):
    """Apply fitted statistics; unseen values may leave [0, 1] (no clipping).

    Features that were constant on the training rows map to 0.
    """
    X = finite_array("X", X, 2, params.n_features())
    if params.method == "none":
        return X.copy()
    # minmax divides by the training range, zscore by the training SD
    span = params.stat_b - params.stat_a if params.method == "minmax" else params.stat_b
    out = (X - params.stat_a) / np.where(span == 0, 1.0, span)
    out[:, span == 0] = 0.0
    return out


def scale_ratings(ratings):
    """Affinely rescale one participant's ratings so min -> 1 and max -> 5.

    All-equal ratings are returned unchanged (degenerate rule).
    """
    r = finite_array("ratings", ratings, 1)
    if r.size == 0:
        raise InsufficientData("no ratings to rescale")
    lo, hi = r.min(), r.max()
    if hi == lo:
        return r.copy()
    return 1.0 + 4.0 * (r - lo) / (hi - lo)


def derive_labels(ratings) -> np.ndarray:
    """One participant's labels in session order: 1 (fast) where the
    rescaled rating exceeds LABEL_THRESHOLD, else 0 (slow)."""
    return (scale_ratings(ratings) > LABEL_THRESHOLD).astype(int)


def assemble(sessions) -> Dataset:
    """Extract task and baseline vectors, subtract the baseline from the
    task (which removes each participant's resting physiology), attach labels.

    Scaling is deliberately NOT applied here; it is fitted per evaluation
    fold to prevent train/test leakage.
    """
    X, y, pids = [], [], []
    order = sorted(sessions, key=lambda s: (s.participant_id, s.session_index))
    for pid, group in groupby(order, key=lambda s: s.participant_id):
        group = list(group)
        for s in group:
            task, baseline = extract_all(s)
            X.append(task - baseline)
        y.extend(derive_labels([s.rating for s in group]))
        pids.extend([pid] * len(group))
    return Dataset(np.array(X).reshape(len(X), len(FEATURE_NAMES)), np.array(y), np.array(pids))


# ---------------------------------------------------------------------------
# Dataset CSV round-trip
# ---------------------------------------------------------------------------

def dataset_to_csv(dataset: Dataset, path):
    lines = [f"# schema_version={DATASET_SCHEMA_VERSION}"]
    lines.append(",".join(dataset.feature_names) + ",label,participant_id")
    for i in range(len(dataset)):
        cells = [repr(float(v)) for v in dataset.X[i]]
        cells.append("fast" if dataset.y[i] == 1 else "slow")
        cells.append(str(int(dataset.participant_ids[i])))
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")


def dataset_from_csv(path) -> Dataset:
    """Read a features CSV as written by ``dataset_to_csv``.

    Raises MissingFile, or InvalidInput naming the line when the header is not
    the feature names plus ``label,participant_id``, a row's cell count differs
    from the header's, a feature is not a finite number, a label is not exactly
    ``fast`` or ``slow``, or a participant id is not an integer >= 1.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"{path}: no such file")
    # undecodable bytes become U+FFFD, which no check below accepts
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    schema = f"# schema_version={DATASET_SCHEMA_VERSION}"
    if lines and lines[0][1].startswith("#"):
        if lines[0][1] != schema:
            raise InvalidInput(f"{path}, line {lines[0][0]}: expected {schema!r}")
        lines = lines[1:]
    columns = FEATURE_NAMES + ("label", "participant_id")
    if not lines or tuple(lines[0][1].split(",")) != columns:
        raise InvalidInput(f"{path}: the header is not the {len(FEATURE_NAMES)} feature "
                           "names followed by 'label,participant_id'")
    X, y, pids = [], [], []
    for lineno, ln in lines[1:]:
        where = f"{path}, line {lineno}"
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise InvalidInput(f"{where}: {len(cells)} cells, the header has {len(columns)}")
        label = {"slow": 0, "fast": 1}.get(cells[-2])
        if label is None:
            raise InvalidInput(f"{where}: label {cells[-2]!r} is neither 'fast' nor 'slow'")
        try:
            X.append([float(c) for c in cells[:-2]])
            pids.append(int(cells[-1]))
        except ValueError as exc:
            raise InvalidInput(f"{where}: {exc}") from None
        if not all(map(math.isfinite, X[-1])):
            raise InvalidInput(f"{where}: non-finite feature value")
        if pids[-1] < 1:
            raise InvalidInput(f"{where}: participant id {pids[-1]} is not >= 1")
        y.append(label)
    return Dataset(np.reshape(X, (len(X), len(FEATURE_NAMES))), y, pids)
