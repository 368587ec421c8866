import hashlib
import json
import math
from itertools import combinations

import numpy as np
import pytest

from timesense import explain
from timesense.classifiers import ClassifierConfig, TrainedModel, decision_scores, train
from timesense.errors import InsufficientData, InvalidInput, Unsupported
from timesense.evaluate import MATRIX_KINDS
from timesense.explain import exact_shapley, kernel_shap, mean_abs_shap
from timesense.model import Dataset
from tests.conftest import mixed_repeats, pinned_fixture


class StubLinear:
    """Linear scoring stub with an analytically known Shapley solution."""

    def __init__(self, w, b=0.0):
        self.w = np.asarray(w, dtype=float)
        self.b = b

    def decision_function(self, X):
        return np.asarray(X, dtype=float) @ self.w + self.b


def stub_model(w, b=0.0):
    w = np.asarray(w, dtype=float)
    return TrainedModel("lr", ClassifierConfig("lr"), StubLinear(w, b), len(w))


class TestExactShapley:
    def test_linear_model_closed_form(self):
        """For f(x) = w.x + b with background mean mu the Shapley values are
        w_i (x_i - mu_i)."""
        rng = np.random.default_rng(0)
        w = np.array([2.0, -1.0, 0.5, 3.0])
        bg = rng.normal(size=(30, 4))
        x = rng.normal(size=4)
        att = exact_shapley(stub_model(w, 1.0), bg, x)
        expected = w * (x - bg.mean(axis=0))
        assert np.allclose(att.values, expected, atol=1e-10)
        assert att.local_accuracy_gap() < 1e-10

    def test_constant_model_all_zero(self):
        att = exact_shapley(stub_model(np.zeros(3), 5.0),
                            np.zeros((5, 3)), np.ones(3))
        assert np.allclose(att.values, 0.0)
        assert att.base_value == pytest.approx(5.0)

    def test_symmetry(self):
        """Two features entering identically get identical attributions."""
        w = np.array([1.5, 1.5, -2.0])
        bg = np.zeros((4, 3))
        x = np.array([1.0, 1.0, 0.5])
        att = exact_shapley(stub_model(w), bg, x)
        assert att.values[0] == pytest.approx(att.values[1], abs=1e-12)

    def test_dummy_feature_zero(self):
        w = np.array([0.0, 2.0])
        bg = np.random.default_rng(1).normal(size=(10, 2))
        att = exact_shapley(stub_model(w), bg, np.array([3.0, 4.0]))
        assert att.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_feature_limit(self):
        with pytest.raises(Unsupported, match="limited to 12 features"):
            exact_shapley(stub_model(np.zeros(13)), np.zeros((2, 13)), np.zeros(13))

    def test_empty_background(self):
        with pytest.raises(InsufficientData):
            exact_shapley(stub_model(np.zeros(2)), np.zeros((0, 2)), np.zeros(2))


class TestShapes:
    @pytest.mark.parametrize("bg_shape,x_shape", [
        ((20, 3), (4,)), ((20, 5), (4,)), ((20, 4), (1, 4)), ((20, 4), ()), ((4,), (4,))])
    def test_bad_shapes_name_both(self, bg_shape, x_shape):
        """A background of other rows than the instance's length, or an
        instance not 1-D, raise InvalidInput naming both shapes."""
        X, y = np.random.default_rng(0).normal(size=(20, 4)), np.arange(20) % 2
        model = train(ClassifierConfig("lr"), X, y)
        explainers = [exact_shapley, lambda *args: kernel_shap(*args, n_samples=64)]
        for explainer in explainers:
            with pytest.raises(InvalidInput) as err:
                explainer(model, np.zeros(bg_shape), np.zeros(x_shape))
            assert str(bg_shape) in str(err.value) and str(x_shape) in str(err.value)


class TestNonFiniteInput:
    @pytest.mark.parametrize("where", ["instance", "background"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refused(self, where, value):
        model = stub_model([1.0, -2.0, 0.5])
        bg, x = np.random.default_rng(0).normal(size=(6, 3)), np.ones(3)
        (x if where == "instance" else bg)[1] = value
        explainers = [exact_shapley, lambda *args: kernel_shap(*args, n_samples=16)]
        for explainer in explainers:
            with pytest.raises(InvalidInput, match=f"{where} must be finite"):
                explainer(model, bg, x)


class TestKernelShap:
    def test_matches_exact_with_full_enumeration(self):
        """With n_samples >= 2^d - 2 every proper coalition is enumerated and
        the weighted regression reproduces exact Shapley values."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 6))
        y = (X[:, 0] + X[:, 3] > 0).astype(int)
        model = train(ClassifierConfig("lr", seed=0), X, y)
        bg = X[:10]
        for i in range(5):
            ks = kernel_shap(model, bg, X[i], n_samples=2**6)
            ex = exact_shapley(model, bg, X[i])
            assert np.allclose(ks.values, ex.values, atol=1e-6)

    def test_local_accuracy_enforced_in_sampling_regime(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 24))
        y = (X[:, :3].sum(axis=1) > 0).astype(int)
        model = train(ClassifierConfig("lr", seed=0), X, y)
        att = kernel_shap(model, X[:20], X[0], n_samples=500, seed=1)
        assert att.local_accuracy_gap() < 1e-9

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 10))
        model = stub_model(rng.normal(size=10))
        a = kernel_shap(model, X, X[0], n_samples=200, seed=9)
        b = kernel_shap(model, X, X[0], n_samples=200, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_scale_equivariance(self):
        """Scaling the model scores by c scales all attributions by c."""
        rng = np.random.default_rng(5)
        w = rng.normal(size=5)
        bg = rng.normal(size=(15, 5))
        x = rng.normal(size=5)
        a = kernel_shap(stub_model(w), bg, x, n_samples=400, seed=0)
        b = kernel_shap(stub_model(3.0 * w), bg, x, n_samples=400, seed=0)
        assert np.allclose(3.0 * a.values, b.values, atol=1e-8)

    def test_dummy_feature_near_zero(self):
        rng = np.random.default_rng(6)
        w = np.array([0.0, 1.0, -2.0, 0.7])
        bg = rng.normal(size=(20, 4))
        x = rng.normal(size=4)
        att = kernel_shap(stub_model(w), bg, x, n_samples=2**4)
        assert att.values[0] == pytest.approx(0.0, abs=1e-8)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientData, match=r"d \+ 2"):
            kernel_shap(stub_model(np.zeros(5)), np.zeros((3, 5)), np.zeros(5),
                        n_samples=4)

    def test_one_feature_takes_the_whole_gap(self):
        """With d = 1 there is no proper coalition; local accuracy alone
        gives phi = [pred - base]."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 1))
        model = train(ClassifierConfig("lr", seed=0), X, (X[:, 0] > 0).astype(int))
        att = kernel_shap(model, X[:7], X[0], n_samples=16)
        assert att.values.shape == (1,)
        assert att.values[0] == att.prediction - att.base_value
        assert att.values[0] != 0.0
        assert exact_shapley(model, X[:7], X[0]).values[0] == pytest.approx(att.values[0])

    def test_empty_background_rejected_before_scoring(self):
        class Unscorable:
            def decision_function(self, X):
                raise AssertionError("model called")

        model = TrainedModel("lr", ClassifierConfig("lr"), Unscorable(), 3)
        with pytest.raises(InsufficientData, match="background must be non-empty"):
            kernel_shap(model, np.zeros((0, 3)), np.zeros(3), n_samples=16)


class TestSamplingArguments:
    """Both entry points name a bad n_samples or seed; numpy integers pass,
    and an unsigned seed does not wrap when a row adds its index."""

    def call(self, entry, n_samples, seed):
        model = stub_model([1.0, -2.0, 0.5])
        X = np.random.default_rng(0).normal(size=(6, 3))
        if entry == "kernel_shap":
            return kernel_shap(model, X, X[0], n_samples=n_samples, seed=seed)
        return mean_abs_shap(model, Dataset(X, np.tile([0, 1], 3), np.arange(6) % 3 + 1,
                                            ("a", "b", "c")), n_samples=n_samples, seed=seed)

    @pytest.mark.parametrize("entry", ["kernel_shap", "mean_abs_shap"])
    @pytest.mark.parametrize("name,value", [("n_samples", 10.0), ("n_samples", True),
                                            ("n_samples", "10"), ("seed", -1), ("seed", 1.5),
                                            ("seed", True), ("seed", None)])
    def test_bad_argument_named(self, entry, name, value):
        args = {"n_samples": 5, "seed": 0, name: value}
        with pytest.raises(InvalidInput, match=name):
            self.call(entry, **args)

    @pytest.mark.parametrize("entry", ["kernel_shap", "mean_abs_shap"])
    def test_n_samples_beyond_the_cap_refused_before_any_draw(self, monkeypatch, entry):
        def no_draw(*args):
            raise AssertionError("coalitions drawn")

        monkeypatch.setattr(explain, "_sample_coalitions", no_draw)
        monkeypatch.setattr(explain, "_coalitions", no_draw)
        with pytest.raises(InvalidInput, match=f"n_samples {explain.MAX_SAMPLES + 1} exceeds"):
            self.call(entry, explain.MAX_SAMPLES + 1, 0)

    def test_the_cap_keeps_the_exhaustive_branch_up_to_16_features(self):
        assert 2 ** 16 - 2 <= explain.MAX_SAMPLES < 2 ** 17 - 2

    @pytest.mark.parametrize("entry", ["kernel_shap", "mean_abs_shap"])
    def test_coalition_entries_beyond_the_budget_refused_before_any_draw(self, monkeypatch,
                                                                          entry):
        """5,002 coalitions of 5,000 features would draw a 200 MB block of
        raw words and build as large a coalition matrix."""
        def no_draw(*args):
            raise AssertionError("coalitions drawn")

        monkeypatch.setattr(explain, "_sample_coalitions", no_draw)
        monkeypatch.setattr(explain, "_coalitions", no_draw)
        d = 5000
        model = stub_model(np.ones(d))
        X = np.zeros((4, d))
        with pytest.raises(InvalidInput, match="n_samples 5002 x 5000 features exceeds the limit"):
            if entry == "kernel_shap":
                kernel_shap(model, X, X[0], n_samples=5002)
            else:
                mean_abs_shap(model, Dataset(X, [0, 1, 0, 1], [1, 1, 2, 2],
                                             tuple(f"f{j}" for j in range(d))), n_samples=5002)

    def test_the_budget_admits_the_cap_up_to_64_features(self):
        explain._check_sampling(64, explain.MAX_SAMPLES, 0)
        with pytest.raises(InvalidInput, match="n_samples"):
            explain._check_sampling(65, explain.MAX_SAMPLES, 0)

    def test_no_population_beyond_floyd_passes_the_budget(self):
        """Generator.choice draws by Floyd's algorithm, which the replay
        copies, only up to 10,000 features; above that it shuffles a tail.
        The budget must keep every such d, with its n_samples >= d + 2, out
        of ``_sample_coalitions``."""
        d = 10_001
        assert d * (d + 2) > explain.MAX_COALITION_ENTRIES

    @pytest.mark.parametrize("entry", ["kernel_shap", "mean_abs_shap"])
    def test_numpy_integers_accepted(self, entry):
        plain = self.call(entry, 5, 255)
        numpy_ints = self.call(entry, np.int64(5), np.uint8(255))
        if entry == "kernel_shap":
            plain, numpy_ints = plain.values, numpy_ints.values
        assert np.array_equal(plain, numpy_ints)


class TestMeanAbsShap:
    def make_dataset(self, w, n=12, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, len(w)))
        y = np.tile([0, 1], n // 2)
        names = tuple(f"f{j}" for j in range(len(w)))
        return Dataset(X, y, np.arange(n) % 3 + 1, names)

    def test_strongest_weight_ranks_first(self):
        w = np.array([0.1, 5.0, 0.5, 0.0])
        ds = self.make_dataset(w)
        ranking = mean_abs_shap(stub_model(w), ds, n_samples=2**4)
        assert ranking[0][0] == "f1"
        assert ranking[0][2] == 1
        # dummy feature ranks last with ~zero mass
        assert ranking[-1][0] == "f3"
        assert ranking[-1][1] == pytest.approx(0.0, abs=1e-8)

    def test_ranks_are_a_permutation(self):
        w = np.array([1.0, 2.0, 3.0])
        ds = self.make_dataset(w)
        ranking = mean_abs_shap(stub_model(w), ds, n_samples=2**3)
        assert sorted(r for _, _, r in ranking) == [1, 2, 3]
        assert {n for n, _, _ in ranking} == {"f0", "f1", "f2"}

    def test_deterministic(self):
        w = np.array([1.0, -2.0, 0.3])
        ds = self.make_dataset(w, seed=3)
        a = mean_abs_shap(stub_model(w), ds, n_samples=2**3, seed=5)
        b = mean_abs_shap(stub_model(w), ds, n_samples=2**3, seed=5)
        assert a == b

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                     ("a", "b"))
        with pytest.raises(InsufficientData):
            mean_abs_shap(stub_model(np.zeros(2)), ds, n_samples=8)


# ---------------------------------------------------------------------------
# Oracles: one model call per coalition, and sizes drawn by Generator.choice.
# The chunked scoring and the once-built size CDF must reproduce them bit for
# bit.
# ---------------------------------------------------------------------------

def loop_coalition_values(model, background, instance, masks):
    background = np.asarray(background, dtype=float)
    instance = np.asarray(instance, dtype=float)
    out = np.empty(len(masks))
    for i, mask in enumerate(masks):
        synth = background.copy()
        synth[:, mask] = instance[mask]
        out[i] = float(np.mean(decision_scores(model, synth)))
    return out


def choice_sample_coalitions(d, n_samples, rng):
    sizes = np.arange(1, d)
    size_probs = np.array([(d - 1) / (s * (d - s)) for s in sizes])
    size_probs = size_probs / size_probs.sum()
    Z = np.zeros((n_samples, d))
    for i in range(n_samples):
        s = int(rng.choice(sizes, p=size_probs))
        cols = rng.choice(d, size=s, replace=False)
        Z[i, cols] = 1.0
    return Z


def loop_kernel_shap(model, background, instance, n_samples, seed=0):
    background = np.asarray(background, dtype=float)
    instance = np.asarray(instance, dtype=float)
    d = len(instance)
    base = float(np.mean(decision_scores(model, background)))
    pred = float(np.mean(decision_scores(model, instance[None, :])))
    if n_samples >= 2**d - 2:
        Z = []
        for size in range(1, d):
            for combo in combinations(range(d), size):
                row = np.zeros(d)
                row[list(combo)] = 1.0
                Z.append(row)
        Z = np.array(Z)
        sizes = Z.sum(axis=1).astype(int)
        weights = np.array([(d - 1) / (math.comb(d, s) * s * (d - s)) for s in sizes])
    else:
        Z = choice_sample_coalitions(d, n_samples, np.random.default_rng(seed))
        weights = np.ones(n_samples)
    v = loop_coalition_values(model, background, instance, [z.astype(bool) for z in Z])
    target = v - base - Z[:, -1] * (pred - base)
    A = Z[:, :-1] - Z[:, -1][:, None]
    sw = np.sqrt(weights)
    coef, *_ = np.linalg.lstsq(A * sw[:, None], target * sw, rcond=None)
    phi = np.empty(d)
    phi[:-1] = coef
    phi[-1] = (pred - base) - float(np.sum(coef))
    return phi, base, pred


# (kind, whether each training row is repeated with mixed labels): every
# matrix kind on the plain rows, plus trees with impure leaves of non-dyadic
# values, whose one-row scores round differently from taller calls
ORACLE_CASES = [(k, False) for k in MATRIX_KINDS] + [("rf", True), ("dtc", True)]


def case_id(case):
    kind, repeated = case
    return kind + ("-mixed-repeats" if repeated else "")


_ORACLE_MODELS = {}


def oracle_problem(case, d=5, seed=0):
    """A model trained on noisy labels with duplicated rows (trained once per
    case, d and seed), and a draw of rows to take backgrounds and
    instances from."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, d))
    y = (X[:, 0] + 0.7 * rng.normal(size=60) > 0).astype(int)
    X[40:50] = X[:10]
    key = (case_id(case), d, seed)
    if key not in _ORACLE_MODELS:
        kind, repeated = case
        _ORACLE_MODELS[key] = train(ClassifierConfig(kind, seed=0),
                                    *(mixed_repeats(X, y) if repeated else (X, y)))
    return _ORACLE_MODELS[key], rng


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestChunkedScoringMatchesLoop:
    @pytest.mark.parametrize("n_bg", [1, 3, 100])
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=case_id)
    def test_coalition_values_bitwise(self, case, n_bg, monkeypatch):
        model, rng = oracle_problem(case)
        background = rng.normal(size=(n_bg, 5))
        instance = rng.normal(size=5)
        masks = rng.random((11, 5)) < 0.5
        expected = loop_coalition_values(model, background, instance, list(masks))
        # one chunk at the real row budget
        assert same_bits(explain._coalition_values(model, background, instance, masks),
                         expected)
        # a budget of 8 rows: 11 masks make chunks of 8 and 3 masks (one
        # row), five of 2 and one of 1 (three rows), one mask each (100 rows)
        monkeypatch.setattr(explain, "CHUNK_ROWS", 8)
        assert same_bits(explain._coalition_values(model, background, instance, masks),
                         expected)

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=case_id)
    def test_background_taller_than_a_chunk(self, case):
        model, rng = oracle_problem(case, seed=1)
        background = rng.normal(size=(explain.CHUNK_ROWS + 3, 5))
        instance = rng.normal(size=5)
        masks = rng.random((3, 5)) < 0.5
        assert same_bits(explain._coalition_values(model, background, instance, masks),
                         loop_coalition_values(model, background, instance, list(masks)))

    @pytest.mark.parametrize("n_bg,n_masks,calls", [
        (1, 4096, 1), (1, 4097, 2), (24, 170, 1), (24, 171, 2), (100, 80, 2), (100, 81, 3), (4097, 3, 3)])
    def test_calls_hold_whole_coalitions_within_the_budget(self, n_bg, n_masks, calls):
        shapes = []

        class Recording(StubLinear):
            def decision_function(self, X):
                # a one-block call passes the plain (rows, d) matrix
                shapes.append(np.shape(X) if np.ndim(X) == 3 else (1,) + np.shape(X))
                return super().decision_function(X)

        model = TrainedModel("lr", ClassifierConfig("lr"), Recording(np.ones(2)), 2)
        masks = np.tile([[True, False]], (n_masks, 1))
        explain._coalition_values(model, np.zeros((n_bg, 2)), np.ones(2), masks)
        assert len(shapes) == calls
        assert sum(s[0] for s in shapes) == n_masks
        assert all(s[1:] == (n_bg, 2) for s in shapes)
        assert all(s[0] == 1 or s[0] * n_bg <= explain.CHUNK_ROWS for s in shapes)

    def test_no_masks(self):
        model, rng = oracle_problem(("lr", False))
        out = explain._coalition_values(model, rng.normal(size=(4, 5)), np.zeros(5),
                                        np.zeros((0, 5), dtype=bool))
        assert out.shape == (0,)

    @pytest.mark.parametrize("n_bg", [3, 24])
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=case_id)
    def test_kernel_shap_bitwise_in_both_branches(self, case, n_bg):
        model, rng = oracle_problem(case, d=4, seed=2)
        background = rng.normal(size=(n_bg, 4))
        instance = rng.normal(size=4)
        for n_samples in (10, 2**4):  # sampled, then every proper coalition
            att = kernel_shap(model, background, instance, n_samples=n_samples, seed=4)
            phi, base, pred = loop_kernel_shap(model, background, instance, n_samples, seed=4)
            assert same_bits(att.values, phi)
            assert (att.base_value, att.prediction) == (base, pred)


class TestSizeSampler:
    @pytest.mark.parametrize("d", range(2, 64))
    def test_same_rows_as_generator_choice(self, d):
        """A numpy whose Generator.choice consumes its stream otherwise fails
        here. Odd and even n_samples; 20 seeds for the short draws, and for
        the long ones a seed that cycles through the same 20 with d, which
        keeps the loop oracle to a few seconds."""
        cases = [(seed, n) for seed in range(20) for n in (1, 2, 3)]
        cases += [(d % 20, 300), (d % 20, 1024)]
        for seed, n_samples in cases:
            got = explain._sample_coalitions(d, n_samples, seed)
            want = choice_sample_coalitions(d, n_samples, np.random.default_rng(seed))
            assert same_bits(got, want), (seed, n_samples)

    def test_a_draw_lemire_may_reject_stops_the_replay(self):
        # an all-zero block: every 32-bit draw is 0, which Lemire's method
        # redraws for a bound that does not divide 2**32, as 5 does not
        class ZeroWords:
            def random_raw(self, n):
                return np.zeros(n, dtype=np.uint64)

        assert explain._replayed_coalitions(5, 4, explain._size_cdf(5), ZeroWords()) is None

    @pytest.mark.parametrize("flag_call", [0, 1, 7, 30])
    def test_rejection_fallback_gives_the_choice_rows(self, flag_call, monkeypatch):
        """A replay that meets a possible rejection, at its first check or
        after some steps, leaves the rows to the loop."""
        checks = []

        def flag_one(products, bounds):
            checks.append(None)
            return len(checks) > flag_call

        monkeypatch.setattr(explain, "_lemire_may_reject", flag_one)
        got = explain._sample_coalitions(24, 300, 11)
        assert len(checks) == flag_call + 1
        assert same_bits(got, choice_sample_coalitions(24, 300, np.random.default_rng(11)))

    @pytest.mark.parametrize("d", range(3, 64))
    def test_extreme_draws_pick_the_extreme_sizes(self, d):
        """Generator.choice normalises its CDF, so the largest uniform draw
        picks the largest size; for d = 8, 16, 28, ... the cumulated
        probabilities end below that draw."""
        cdf = explain._size_cdf(d)
        assert explain._pick_size(cdf, np.nextafter(1.0, 0.0)) == d - 1
        assert explain._pick_size(cdf, 0.0) == 1


# sha256 of the mean |SHAP| ranking JSON, recorded with the per-coalition
# scoring: (fixture, kind, n_samples, MAX_BACKGROUND, row step)
PINNED_RANKINGS = {
    ("blobs", "lr", 2048, 30, 1):
        "e0170f92cad3ddfe2059adff5bf94fdbc9c761781d9305905cb51f73ba7e9774",
    ("blobs", "lr", 8, 30, 1):
        "ae5e8538b96e9a3a8092c4e60e5571bd2c1a79433c4fbc71463abcb0280dd7e9",
    ("blobs", "rf", 2048, 30, 4):
        "ca94c8f35db0f901b294576e9da4cee637ed329cad5d4b029fb7d08ef08b8241",
    ("blobs", "rf", 8, 30, 4):
        "1c9ec8f14c2555541f51ba2a82e259d45c8cff5b5ee48db4663c5b65706b4916",
    ("xor_data", "lr", 2048, 100, 1):
        "61a8cce2f433a8585c7768b12c4bbea0931d010c94f25bd5190e290780dca00d",
    ("xor_data", "rf", 2048, 100, 8):
        "d7e71c15f7128bd842a52e397300d6440e91a3ce49529019a5ef5f07800f7088",
}


def pinned_ranking(fixture, kind, n_samples, step):
    X, y, rows = pinned_fixture(fixture)
    model = train(ClassifierConfig(kind, seed=0), X, y)
    rows = rows[::step]
    ds = Dataset(rows, np.zeros(len(rows), dtype=int), np.zeros(len(rows), dtype=int),
                 tuple(f"f{j}" for j in range(rows.shape[1])))
    return mean_abs_shap(model, ds, n_samples=n_samples, seed=3)


@pytest.mark.parametrize("case", sorted(PINNED_RANKINGS))
def test_rankings_reproduce_pinned_digests(case, monkeypatch):
    fixture, kind, n_samples, max_background, step = case
    monkeypatch.setattr(explain, "MAX_BACKGROUND", max_background)
    ranking = pinned_ranking(fixture, kind, n_samples, step)
    assert hashlib.sha256(json.dumps(ranking).encode()).hexdigest() == PINNED_RANKINGS[case]
