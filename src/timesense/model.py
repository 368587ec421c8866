"""Shared domain types and the canonical 24-feature naming contract."""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidInput, check_labels, check_positive, finite_array

# Canonical feature order. Every feature matrix, CSV and report in the
# library uses exactly this order; do not reorder without bumping schema.
PPG_FEATURES = (
    "bpm",
    "ibi_ms",
    "sdnn_ms",
    "sdsd_ms",
    "rmssd_ms",
    "pnn20",
    "pnn50",
    "hr_mad_ms",
    "sd1_ms",
    "sd2_ms",
    "s_ms2",
    "sd1_sd2_ratio",
    "breathing_rate_hz",
)

EDA_FEATURES = (
    "scr_peaks_n",
    "scr_peaks_amplitude_mean_us",
    "eda_tonic_sd_us",
    "eda_sympathetic",
    "eda_sympathetic_n",
    "eda_autocorrelation",
)

TEMP_FEATURES = (
    "temp_diff_mean_c",
    "thermopile_mean_c",
    "reference_mean_c",
    "temp_gradient_mean_c_per_s",
    "temp_psd_power",
)

FEATURE_NAMES: Tuple[str, ...] = PPG_FEATURES + EDA_FEATURES + TEMP_FEATURES
assert len(FEATURE_NAMES) == 24

GREEK = "greek"
ENGLISH = "english"

# The recorded channels, in the order SessionRecord holds them.
CHANNELS = ("ppg", "eda", "thermopile", "reference_temp")


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled channel. Sample i sits at time i / sampling_rate_hz."""

    values: np.ndarray
    sampling_rate_hz: float

    def __post_init__(self):
        check_positive("sampling_rate_hz", self.sampling_rate_hz)
        object.__setattr__(self, "values", finite_array("values", self.values, 1))
        self.values.setflags(write=False)

    def __len__(self):
        return len(self.values)

    @property
    def duration_s(self) -> float:
        return len(self.values) / self.sampling_rate_hz

    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) / self.sampling_rate_hz


@dataclass(frozen=True)
class SessionSetting:
    """Workload condition: how many helicopters, which language."""

    helicopters: int
    language: str

    def __post_init__(self):
        if self.helicopters not in (1, 2):
            raise InvalidInput("helicopters must be 1 or 2")
        if self.language not in (GREEK, ENGLISH):
            raise InvalidInput(f"language must be one of {GREEK!r}, {ENGLISH!r}")


ALL_SETTINGS = (
    SessionSetting(1, GREEK),
    SessionSetting(1, ENGLISH),
    SessionSetting(2, GREEK),
    SessionSetting(2, ENGLISH),
)


@dataclass(frozen=True)
class SessionRecord:
    """One recorded sequence: channels, task window, questionnaire answers.

    Construction raises InvalidInput, a ValueError, for the first rule the
    session breaks.
    """

    participant_id: int
    session_index: int
    setting: SessionSetting
    ppg: TimeSeries
    eda: TimeSeries
    thermopile: TimeSeries
    reference_temp: TimeSeries
    task_start_s: float
    task_end_s: float
    rating: int
    duration_estimate_s: float = None  # None when not asked

    def __post_init__(self):
        if self.participant_id < 1:
            raise InvalidInput("participant_id must be >= 1")
        if not 1 <= self.session_index <= 4:
            raise InvalidInput("session_index out of range 1..4")
        if self.rating not in (1, 2, 3, 4, 5):
            raise InvalidInput("rating out of range")
        if self.task_start_s <= 0:
            raise InvalidInput("empty baseline interval")
        if self.task_end_s <= self.task_start_s:
            raise InvalidInput("task_end_s must exceed task_start_s")
        for name in CHANNELS:
            ch: TimeSeries = getattr(self, name)
            if len(ch) < 2:
                raise InvalidInput(f"{name} channel too short")
            if self.task_end_s > ch.duration_s + 1e-9:
                raise InvalidInput(f"task window exceeds {name} recording length")
        if self.duration_estimate_s is not None:
            check_positive("duration_estimate_s", self.duration_estimate_s)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels and participant identifiers."""

    X: np.ndarray                 # (n, d)
    y: np.ndarray                 # (n,) of 0 (slow) / 1 (fast)
    participant_ids: np.ndarray   # (n,) ints
    feature_names: Tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self):
        X = finite_array("X", self.X, 2, len(self.feature_names))
        y = check_labels("y", self.y)
        pids = check_labels("participant_ids", self.participant_ids, binary=False)
        if y.shape != (len(X),) or pids.shape != y.shape:
            raise InvalidInput("inconsistent dataset shapes")
        names = tuple(self.feature_names)
        if len(set(names)) < len(names):
            # selection maps each name to one column
            repeated = sorted({n for n in names if names.count(n) > 1})
            raise InvalidInput(f"duplicate feature names: {repeated}")
        for a in (X, y, pids):
            a.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "participant_ids", pids)
        object.__setattr__(self, "feature_names", names)

    def __len__(self):
        return len(self.y)

    def participants(self) -> np.ndarray:
        return np.unique(self.participant_ids)

    def select_rows(self, mask) -> "Dataset":
        return Dataset(self.X[mask], self.y[mask], self.participant_ids[mask],
                       self.feature_names)


@dataclass(frozen=True)
class FoldResult:
    """Outcome of one leave-one-subject-out fold."""

    held_out_participant: int
    accuracy: float
    selected_feature_names: Tuple[str, ...]
    scaler_stats: Optional[dict] = None
    predictions: Tuple[int, ...] = ()
    actual: Tuple[int, ...] = ()


@dataclass(frozen=True)
class EvaluationReport:
    per_fold: Tuple[FoldResult, ...]

    @property
    def mean_accuracy(self) -> float:
        """Mean of the per-fold accuracies; nan for a report of no folds."""
        folds = self.per_fold
        return float(np.mean([f.accuracy for f in folds])) if folds else float("nan")
