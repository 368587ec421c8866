import numpy as np
import pytest

from timesense.classifiers import ClassifierConfig, TrainedModel, train
from timesense.errors import InsufficientData, Unsupported
from timesense.explain import exact_shapley, kernel_shap, mean_abs_shap
from timesense.model import Dataset


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
        with pytest.raises(ValueError):
            exact_shapley(stub_model(np.zeros(2)), np.zeros((0, 2)), np.zeros(2))


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
        with pytest.raises(ValueError):
            mean_abs_shap(stub_model(np.zeros(2)), ds)
