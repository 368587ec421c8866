import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timesense import pipeline
from timesense.errors import InsufficientData, InvalidInput
from timesense.model import FEATURE_NAMES, Dataset
from timesense.pipeline import (
    apply_scaler,
    derive_labels,
    fit_scaler,
    scale_ratings,
)


class TestScaler:
    def test_minmax_example(self):
        X = np.array([[2.0], [4.0], [6.0]])
        params = fit_scaler(X, "minmax")
        out = apply_scaler(params, X)
        assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])

    def test_zscore_example_population_sd(self):
        X = np.array([[2.0], [4.0], [6.0]])
        params = fit_scaler(X, "zscore")
        assert params.stat_a[0] == pytest.approx(4.0)
        assert params.stat_b[0] == pytest.approx(1.632993161855452)
        out = apply_scaler(params, X)
        assert out.ravel()[0] == pytest.approx(-2.0 / 1.632993161855452)
        assert np.mean(out) == pytest.approx(0.0, abs=1e-12)
        assert np.std(out) == pytest.approx(1.0, abs=1e-12)

    def test_none_is_identity(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = apply_scaler(fit_scaler(X, "none"), X)
        assert np.array_equal(out, X)

    def test_unseen_values_not_clipped(self):
        train = np.array([[0.0], [10.0]])
        params = fit_scaler(train, "minmax")
        out = apply_scaler(params, np.array([[-5.0], [20.0]]))
        assert out.ravel()[0] == pytest.approx(-0.5)
        assert out.ravel()[1] == pytest.approx(2.0)

    def test_constant_training_column_maps_to_zero(self):
        train = np.array([[7.0, 1.0], [7.0, 2.0]])
        for method in ("minmax", "zscore"):
            out = apply_scaler(fit_scaler(train, method), np.array([[9.0, 1.5]]))
            assert out[0, 0] == 0.0

    def test_minmax_training_image_in_unit_interval(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 5)) * 10
        out = apply_scaler(fit_scaler(X, "minmax"), X)
        assert out.min() >= -1e-12 and out.max() <= 1 + 1e-12

    def test_too_few_rows(self):
        with pytest.raises(InsufficientData, match="at least 2 training rows"):
            fit_scaler(np.ones((1, 3)), "zscore")

    def test_dimension_mismatch(self):
        params = fit_scaler(np.ones((3, 2)) * [[1], [2], [3]], "zscore")
        with pytest.raises(InvalidInput, match="feature count does not match"):
            apply_scaler(params, np.ones((2, 5)))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fit_scaler(np.ones((3, 2)), "robust")


class TestLabels:
    def test_scale_ratings_example(self):
        assert np.allclose(scale_ratings([2, 3, 3, 5]),
                           [1.0, 7.0 / 3.0, 7.0 / 3.0, 5.0])

    def test_scale_ratings_full_span_unchanged(self):
        assert np.allclose(scale_ratings([1, 5]), [1.0, 5.0])
        assert np.allclose(scale_ratings([1, 2, 3, 4, 5]), [1, 2, 3, 4, 5])

    def test_all_equal_ratings_unchanged(self):
        assert np.allclose(scale_ratings([4, 4, 4, 4]), [4, 4, 4, 4])

    def test_derive_labels_examples(self):
        assert derive_labels([2, 3, 3, 5]).tolist() == [0, 0, 0, 1]
        # all-equal 4s stay at 4 > 3 -> fast
        assert derive_labels([4, 4, 4, 4]).tolist() == [1] * 4
        # 1s -> 1, 2s -> 5 after rescale
        assert derive_labels([1, 1, 2, 2]).tolist() == [0, 0, 1, 1]

    def test_empty_ratings_rejected(self):
        with pytest.raises(ValueError):
            derive_labels([])

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=8),
           st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_rating_shift_invariance(self, ratings, shift):
        """Adding a constant to all ratings never changes the labels
        (unless it collapses/uncollapses nothing -- shift keeps spread)."""
        shifted = [r + shift for r in ratings]
        a = derive_labels(ratings)
        b = derive_labels(shifted)
        if len(set(ratings)) > 1:
            assert np.array_equal(a, b)


class TestAssemble:
    def test_small_corpus(self, small_sessions, small_dataset):
        assert len(small_dataset) == len(small_sessions)
        assert small_dataset.X.shape == (len(small_sessions), 24)
        assert small_dataset.feature_names == FEATURE_NAMES

    def test_rows_sorted_by_participant_then_session(self, small_sessions, small_dataset):
        expected = sorted((s.participant_id, s.session_index) for s in small_sessions)
        assert [p for p, _ in expected] == list(small_dataset.participant_ids)

    def test_session_order_does_not_matter(self, small_sessions):
        shuffled = list(reversed(small_sessions))
        a = pipeline.assemble(small_sessions)
        b = pipeline.assemble(shuffled)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_labels_match_ratings(self, small_sessions, small_dataset):
        ratings = {}
        for s in sorted(small_sessions, key=lambda s: (s.participant_id, s.session_index)):
            ratings.setdefault(s.participant_id, []).append(s.rating)
        expected = np.concatenate([derive_labels(ratings[pid]) for pid in sorted(ratings)])
        assert np.array_equal(expected, small_dataset.y)


class TestDatasetCsv:
    def test_round_trip(self, small_dataset, tmp_path):
        p = tmp_path / "ds.csv"
        pipeline.dataset_to_csv(small_dataset, p)
        back = pipeline.dataset_from_csv(p)
        assert np.array_equal(back.X, small_dataset.X)
        assert np.array_equal(back.y, small_dataset.y)
        assert np.array_equal(back.participant_ids, small_dataset.participant_ids)
        assert back.feature_names == small_dataset.feature_names

    def test_schema_comment_first_line(self, small_dataset, tmp_path):
        p = tmp_path / "ds.csv"
        pipeline.dataset_to_csv(small_dataset, p)
        first = open(p).readline().strip()
        assert first == "# schema_version=1"

    def test_write_is_deterministic(self, small_dataset, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        pipeline.dataset_to_csv(small_dataset, p1)
        pipeline.dataset_to_csv(small_dataset, p2)
        assert open(p1).read() == open(p2).read()

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidInput, match="header is not"):
            pipeline.dataset_from_csv(p)

    @pytest.mark.parametrize("damage, message", [
        (lambda lines: [], "header is not"),
        (lambda lines: lines[:1], "header is not"),
        (lambda lines: ["# schema_version=2"] + lines[1:], "line 1: expected"),
        (lambda lines: lines[:3] + [lines[3] + ",1.0,2.0"] + lines[4:], "line 4: 28 cells"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:], "line 4: 25 cells"),
        (lambda lines: lines[:3] + [lines[3].replace(",fast,", ",FAST,").replace(
            ",slow,", ",FAST,")] + lines[4:], "line 4: label 'FAST'"),
        (lambda lines: lines[:3] + [lines[3].replace(",fast,", ",Fast,").replace(
            ",slow,", ",Fast,")] + lines[4:], "line 4: label 'Fast'"),
        (lambda lines: lines[:3] + ["nan" + lines[3][lines[3].index(","):]] + lines[4:],
         "line 4: non-finite"),
        (lambda lines: lines[:3] + ["x" + lines[3][lines[3].index(","):]] + lines[4:],
         "line 4: could not convert"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",1.5"] + lines[4:],
         "line 4: invalid literal"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",-2"] + lines[4:],
         "line 4: participant id -2"),
    ])
    def test_damaged_file_rejected_with_line(self, small_dataset, tmp_path, damage, message):
        p = tmp_path / "ds.csv"
        pipeline.dataset_to_csv(small_dataset, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(damage(lines)) + "\n")
        with pytest.raises(InvalidInput, match=message):
            pipeline.dataset_from_csv(p)
