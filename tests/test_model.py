import numpy as np
import pytest

from timesense.model import (
    FEATURE_NAMES,
    Dataset,
    EvaluationReport,
    FoldResult,
    SessionSetting,
    TimeSeries,
    validate_session,
)


def test_feature_names_are_24_and_unique():
    assert len(FEATURE_NAMES) == 24
    assert len(set(FEATURE_NAMES)) == 24


def test_timeseries_rejects_nonfinite_and_bad_rate():
    with pytest.raises(ValueError):
        TimeSeries([1.0, np.nan], 10.0)
    with pytest.raises(ValueError):
        TimeSeries([1.0, 2.0], 0.0)


def test_timeseries_is_immutable():
    ts = TimeSeries([1.0, 2.0, 3.0], 10.0)
    with pytest.raises(ValueError):
        ts.values[0] = 9.0


def test_session_setting_combinations():
    with pytest.raises(ValueError):
        SessionSetting(3, "greek")
    with pytest.raises(ValueError):
        SessionSetting(1, "german")


def _session(**overrides):
    from timesense.model import SessionRecord
    n = 300
    kwargs = dict(
        participant_id=1,
        session_index=1,
        setting=SessionSetting(1, "greek"),
        ppg=TimeSeries(np.sin(np.arange(n)), 25.0),
        eda=TimeSeries(np.ones(n), 15.0),
        thermopile=TimeSeries(np.full(n, 34.0), 7.5),
        reference_temp=TimeSeries(np.full(n, 25.0), 7.5),
        task_start_s=3.0,
        task_end_s=11.0,
        rating=3,
    )
    kwargs.update(overrides)
    return SessionRecord(**kwargs)


def test_validate_session_well_formed():
    assert validate_session(_session()) == []


def test_validate_session_bad_rating():
    violations = validate_session(_session(rating=7))
    assert any("rating" in v for v in violations)


def test_validate_session_empty_baseline():
    violations = validate_session(_session(task_start_s=0.0))
    assert any("baseline" in v for v in violations)


def test_dataset_validates_labels_and_shapes():
    X = np.zeros((3, 24))
    with pytest.raises(ValueError):
        Dataset(X, [0, 1, 2], [1, 1, 2])
    with pytest.raises(ValueError):
        Dataset(X, [0, 1], [1, 1])


def test_dataset_subset_features():
    X = np.arange(48, dtype=float).reshape(2, 24)
    ds = Dataset(X, [0, 1], [1, 2])
    sub = ds.subset_features(["ibi_ms", "bpm"])
    assert sub.feature_names == ("ibi_ms", "bpm")
    assert sub.X[0, 0] == X[0, FEATURE_NAMES.index("ibi_ms")]


def test_report_mean_consistency():
    folds = tuple(FoldResult(i, a, ()) for i, a in enumerate([0.5, 0.75, 1.0]))
    report = EvaluationReport(folds)
    assert report.mean_accuracy == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        EvaluationReport(folds, mean_accuracy=0.5)
