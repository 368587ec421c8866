"""One table of bad arguments to the library's entry points.

Each row is (entry point, argument, bad value): the call must raise a
``TimesenseError`` whose message names the argument. The values cover NaN,
±inf, a bool, a string, the wrong number of dimensions, the wrong width, an
empty array and 0.5 as a label. The rules behind them live in
``timesense.errors``; this table checks that every entry point applies them.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from timesense import dsp, evaluate, explain, ingest, pipeline, selection
from timesense.classifiers import ClassifierConfig, decision_scores, predict, train, train_many
from timesense.errors import TimesenseError
from timesense.model import FEATURE_NAMES, Dataset, TimeSeries

NAN, INF = float("nan"), float("inf")


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """A series, a trained 3-feature lr model and its rows, a 24-feature
    dataset's parts and a well-formed channel CSV."""
    rng = np.random.default_rng(0)
    y = np.tile([0, 1], 10)
    X = rng.normal(size=(20, 3)) + y[:, None]
    csv = tmp_path_factory.mktemp("bad_arguments") / "ch.csv"
    csv.write_text("timestamp_s,value\n" + "".join(f"{i / 10},1.0\n" for i in range(20)))
    return SimpleNamespace(series=TimeSeries(np.arange(100, dtype=float), 10.0),
                           model=train(ClassifierConfig("lr"), X, y), X=X, y=y, csv=csv,
                           rows=np.zeros((4, len(FEATURE_NAMES))), labels=[0, 1, 0, 1],
                           pids=[1, 1, 2, 2])


def _with(X, at, value):
    """A float copy of ``X`` with ``value`` at index ``at``."""
    X = np.array(X, dtype=float)
    X[at] = value
    return X


def _dataset(c, **given):
    return Dataset(**{"X": c.rows, "y": c.labels, "participant_ids": c.pids, **given})


def _scaler(c):
    return pipeline.fit_scaler(c.X, "minmax")


# (id, argument, call on the fixture); the id names the entry point and the value
CASES = [
    # integers
    ("welch_psd-True", "max_segment", lambda c: dsp.welch_psd(c.series, True)),
    ("welch_psd-str", "max_segment", lambda c: dsp.welch_psd(c.series, "8")),
    ("welch_psd-2.5", "max_segment", lambda c: dsp.welch_psd(c.series, 2.5)),
    ("read_channel_csv-trim_head-True", "trim_head",
     lambda c: ingest.read_channel_csv(c.csv, 10.0, trim_head=True)),
    ("read_channel_csv-trim_head-1.5", "trim_head",
     lambda c: ingest.read_channel_csv(c.csv, 10.0, trim_head=1.5)),
    ("read_channel_csv-trim_tail-str", "trim_tail",
     lambda c: ingest.read_channel_csv(c.csv, 10.0, trim_tail="1")),
    ("sfs-True", "n_features",
     lambda c: selection.sfs(_dataset(c), ClassifierConfig("lr"), True)),
    ("kernel_shap-n_samples-True", "n_samples",
     lambda c: explain.kernel_shap(c.model, c.X, c.X[0], True)),
    ("kernel_shap-n_samples-str", "n_samples",
     lambda c: explain.kernel_shap(c.model, c.X, c.X[0], "64")),
    # finite positive reals
    ("resample_fourier-True", "target_rate_hz", lambda c: dsp.resample_fourier(c.series, True)),
    ("resample_fourier-nan", "target_rate_hz", lambda c: dsp.resample_fourier(c.series, NAN)),
    ("resample_fourier--inf", "target_rate_hz", lambda c: dsp.resample_fourier(c.series, -INF)),
    ("resample_fourier-str", "target_rate_hz", lambda c: dsp.resample_fourier(c.series, "5")),
    ("extend_to_minimum-True", "min_s", lambda c: dsp.extend_to_minimum(c.series, True)),
    ("extend_to_minimum-inf", "min_s", lambda c: dsp.extend_to_minimum(c.series, INF)),
    ("TimeSeries-rate-True", "sampling_rate_hz", lambda c: TimeSeries([1.0, 2.0], True)),
    ("TimeSeries-rate-nan", "sampling_rate_hz", lambda c: TimeSeries([1.0, 2.0], NAN)),
    ("TimeSeries-rate-str", "sampling_rate_hz", lambda c: TimeSeries([1.0, 2.0], "10")),
    ("read_channel_csv-rate-inf", "sampling_rate_hz",
     lambda c: ingest.read_channel_csv(c.csv, INF)),
    ("read_channel_csv-rate-str", "sampling_rate_hz",
     lambda c: ingest.read_channel_csv(c.csv, "25")),
    ("read_channel_csv-rate-True", "sampling_rate_hz",
     lambda c: ingest.read_channel_csv(c.csv, True)),
    # filter cutoffs, and segment bounds: a finite start >= 0, an end that may be +inf
    ("bandpass-low-str", "low_hz", lambda c: dsp.bandpass(c.series, "0.7", 3.5)),
    ("bandpass-high-str", "high_hz", lambda c: dsp.bandpass(c.series, 0.7, "3.5")),
    ("bandpass-low-True", "low_hz", lambda c: dsp.bandpass(c.series, True, 3.5)),
    ("lowpass-str", "cutoff_hz", lambda c: dsp.lowpass(c.series, "3")),
    ("lowpass-True", "cutoff_hz", lambda c: dsp.lowpass(c.series, True)),
    # cutoffs whose designs have no steady state at the series' 10 Hz: a
    # singular one, and one whose DC gain divides by zero
    ("lowpass-1e-12", "cutoff_hz", lambda c: dsp.lowpass(c.series, 1e-12)),
    ("lowpass-1e-8", "cutoff_hz", lambda c: dsp.lowpass(c.series, 1e-8)),
    ("bandpass-low-1e-9", "low_hz", lambda c: dsp.bandpass(c.series, 1e-9, 3.5)),
    # outputs beyond dsp.MAX_SAMPLES, refused before they are allocated
    ("resample_fourier-1e300", "target_rate_hz", lambda c: dsp.resample_fourier(c.series, 1e300)),
    ("resample_fourier-1e12", "target_rate_hz", lambda c: dsp.resample_fourier(c.series, 1e12)),
    ("extend_to_minimum-1e300", "min_s", lambda c: dsp.extend_to_minimum(c.series, 1e300)),
    ("extend_to_minimum-1e12", "min_s", lambda c: dsp.extend_to_minimum(c.series, 1e12)),
    ("segment-start-str", "start_s", lambda c: dsp.segment(c.series, "0", 5)),
    ("segment-start-True", "start_s", lambda c: dsp.segment(c.series, True, 5)),
    ("segment-end-None", "end_s", lambda c: dsp.segment(c.series, 0, None)),
    ("segment-end-True", "end_s", lambda c: dsp.segment(c.series, 0, True)),
    # finite float arrays
    ("decision_scores-nan", "X", lambda c: decision_scores(c.model, _with(c.X, (0, 0), NAN))),
    ("decision_scores-inf", "X", lambda c: decision_scores(c.model, _with(c.X, (1, 2), INF))),
    ("decision_scores-str", "X", lambda c: decision_scores(c.model, [["a", "b", "c"]])),
    ("decision_scores-width", "X", lambda c: decision_scores(c.model, np.ones((2, 5)))),
    ("decision_scores-ndim", "X", lambda c: decision_scores(c.model, np.ones(3))),
    ("predict-nan", "X", lambda c: predict(c.model, _with(c.X, (0, 0), NAN))),
    ("predict--inf", "X", lambda c: predict(c.model, _with(c.X, (3, 1), -INF))),
    ("train-str", "X", lambda c: train(ClassifierConfig("lr"), [["a"], ["b"]], [0, 1])),
    ("train-nan", "training data",
     lambda c: train(ClassifierConfig("lr"), _with(c.X, (0, 0), NAN), c.y)),
    ("fit_scaler-nan", "train_X", lambda c: pipeline.fit_scaler([[NAN], [1.0]], "minmax")),
    ("fit_scaler-inf", "train_X", lambda c: pipeline.fit_scaler([[INF], [1.0]], "zscore")),
    ("fit_scaler-str", "train_X", lambda c: pipeline.fit_scaler([["a"], ["b"]], "minmax")),
    ("fit_scaler-ndim", "train_X", lambda c: pipeline.fit_scaler([1.0, 2.0, 3.0], "minmax")),
    ("fit_scaler-empty", "train_X", lambda c: pipeline.fit_scaler([], "minmax")),
    ("apply_scaler-nan", "X", lambda c: pipeline.apply_scaler(_scaler(c), _with(c.X, 0, NAN))),
    ("apply_scaler-width", "X", lambda c: pipeline.apply_scaler(_scaler(c), np.ones((2, 5)))),
    ("scale_ratings-nan", "ratings", lambda c: pipeline.scale_ratings([1, NAN, 5])),
    ("scale_ratings-ndim", "ratings", lambda c: pipeline.scale_ratings([[1, 2], [3, 4]])),
    ("scale_ratings-str", "ratings", lambda c: pipeline.scale_ratings(["a", "b"])),
    ("scale_ratings-empty", "ratings", lambda c: pipeline.scale_ratings([])),
    ("accuracy-ndim", "predicted", lambda c: evaluate.accuracy([[1, 0]], [[1, 0]])),
    ("accuracy-actual-ndim", "actual", lambda c: evaluate.accuracy([1, 0], [[1, 0]])),
    ("accuracy-nan", "actual", lambda c: evaluate.accuracy([1, 0], [1, NAN])),
    ("kernel_shap-instance-str", "instance",
     lambda c: explain.kernel_shap(c.model, c.X, ["a", "b", "c"], 64)),
    ("kernel_shap-background-str", "background",
     lambda c: explain.kernel_shap(c.model, [["a", "b", "c"]], c.X[0], 64)),
    ("kernel_shap-instance-nan", "instance",
     lambda c: explain.kernel_shap(c.model, c.X, _with(c.X[0], 1, NAN), 64)),
    ("exact_shapley-background-inf", "background",
     lambda c: explain.exact_shapley(c.model, _with(c.X, (2, 0), INF), c.X[0])),
    ("exact_shapley-background-empty", "background",
     lambda c: explain.exact_shapley(c.model, np.zeros((0, 3)), c.X[0])),
    ("TimeSeries-values-str", "values", lambda c: TimeSeries(["a", "b"], 10.0)),
    ("TimeSeries-values-nan", "values", lambda c: TimeSeries([1.0, NAN], 10.0)),
    ("TimeSeries-values-ndim", "values", lambda c: TimeSeries([[1.0, 2.0]], 10.0)),
    ("Dataset-X-str", "X", lambda c: _dataset(c, X=np.full((4, 24), "a"))),
    ("Dataset-X-nan", "X", lambda c: _dataset(c, X=_with(c.rows, (0, 0), NAN))),
    ("Dataset-X-width", "X", lambda c: _dataset(c, X=np.zeros((4, 5)))),
    ("Dataset-X-empty", "X", lambda c: _dataset(c, X=[], y=[], participant_ids=[])),
    # 0/1 labels, and whole-number participant ids
    ("Dataset-y-0.5", "y", lambda c: _dataset(c, y=[0.5, 1, 0, 1])),
    ("Dataset-y-str", "y", lambda c: _dataset(c, y=["a", "b", "a", "b"])),
    ("Dataset-y-nan", "y", lambda c: _dataset(c, y=[0, 1, NAN, 1])),
    ("Dataset-participant_ids-1.7", "participant_ids",
     lambda c: _dataset(c, participant_ids=[1.7, 1, 2, 2])),
    ("Dataset-participant_ids-inf", "participant_ids",
     lambda c: _dataset(c, participant_ids=[1, INF, 2, 2])),
    ("train_many-complex-labels", "training labels",
     lambda c: train_many(ClassifierConfig("lr"), [(c.X, c.y.astype(complex))])),
    ("train-y-0.5", "training labels",
     lambda c: train(ClassifierConfig("lr"), c.X, _with(c.y, 0, 0.5))),
    ("stratified_kfold-0.5", "y", lambda c: selection.stratified_kfold(_with(c.y, 0, 0.5), 0)),
    ("stratified_kfold-str", "y", lambda c: selection.stratified_kfold(["0", "1"] * 5, 0)),
]


@pytest.mark.parametrize("argument,call", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_a_bad_argument_is_refused_by_name(ctx, argument, call):
    with pytest.raises(TimesenseError) as raised:
        call(ctx)
    assert re.search(rf"(^|\W){re.escape(argument)}\b", str(raised.value)), str(raised.value)
