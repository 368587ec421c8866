import numpy as np
import pytest

from timesense.errors import InvalidInput
from timesense.model import (
    CHANNELS,
    FEATURE_NAMES,
    Dataset,
    EvaluationReport,
    FoldResult,
    SessionRecord,
    SessionSetting,
    TimeSeries,
)


def test_feature_names_are_24_and_unique():
    assert len(FEATURE_NAMES) == 24
    assert len(set(FEATURE_NAMES)) == 24


def test_timeseries_rejects_nonfinite_and_bad_rate():
    with pytest.raises(ValueError):
        TimeSeries([1.0, np.nan], 10.0)
    for rate in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sampling_rate_hz must be positive and finite"):
            TimeSeries([1.0, 2.0], rate)


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


# Each rule a session must keep: its id, fields that break it and the message.
SESSION_RULES = [
    ("participant_id", {"participant_id": 0}, "participant_id must be >= 1"),
    ("session_index", {"session_index": 5}, "session_index out of range 1..4"),
    ("rating", {"rating": 7}, "rating out of range"),
    ("empty_baseline", {"task_start_s": 0.0}, "empty baseline interval"),
    ("task_end", {"task_end_s": 3.0}, "task_end_s must exceed task_start_s"),
    ("duration_estimate", {"duration_estimate_s": 0.0},
     "duration_estimate_s must be positive and finite, got 0.0"),
] + [
    (f"{name}_too_short", {name: TimeSeries([1.0], 0.01)}, f"{name} channel too short")
    for name in CHANNELS
] + [
    (f"window_past_{name}", {name: TimeSeries(np.ones(20), 2.0)},
     f"task window exceeds {name} recording length")
    for name in CHANNELS
]


def test_well_formed_session_constructs():
    session = _session(duration_estimate_s=12.5)
    assert (session.participant_id, session.rating) == (1, 3)
    assert _session().duration_estimate_s is None


@pytest.mark.parametrize("overrides, message", [r[1:] for r in SESSION_RULES],
                         ids=[r[0] for r in SESSION_RULES])
def test_session_breaking_a_rule_does_not_construct(overrides, message):
    with pytest.raises(ValueError) as err:
        _session(**overrides)
    assert str(err.value) == message


def test_dataset_validates_labels_and_shapes():
    X = np.zeros((3, 24))
    with pytest.raises(ValueError):
        Dataset(X, [0, 1, 2], [1, 1, 2])
    with pytest.raises(ValueError):
        Dataset(X, [0, 1], [1, 1])


def test_dataset_refuses_duplicate_feature_names():
    """Selection maps each name to one column; a repeated name would map the
    column a selection chose to another."""
    X = np.zeros((2, 3))
    with pytest.raises(InvalidInput, match=r"duplicate feature names: \['a'\]"):
        Dataset(X, [0, 1], [1, 2], ("a", "b", "a"))
    assert Dataset(X, [0, 1], [1, 2], ("a", "b", "c")).feature_names == ("a", "b", "c")


def test_report_mean_consistency():
    folds = tuple(FoldResult(i, a, ()) for i, a in enumerate([0.5, 0.75, 1.0]))
    report = EvaluationReport(folds)
    assert report.mean_accuracy == pytest.approx(0.75, abs=1e-12)
