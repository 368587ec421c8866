import gc
import hashlib
import inspect
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from timesense.classifiers import base, ensemble, svm, tree
from timesense.classifiers.ensemble import (
    AdaBoost,
    DecisionTree,
    GradientBoosting,
    RandomForest,
    XGBoost,
)
from timesense.classifiers.base import (
    KINDS,
    ClassifierConfig,
    decision_scores,
    importance,
    canonical_order,
    predict,
    train,
    train_many,
)
from timesense.classifiers.lanes import Lanes
from timesense.classifiers.knn import KNN
from timesense.classifiers.linear import (
    LDA,
    QDA,
    GaussianNB,
    LogisticRegressionNewton,
    NewtonLanes,
    sigmoid,
)
from timesense.classifiers.svm import SMOSVC, rbf_kernel
from timesense.errors import InsufficientData, InvalidInput, Unsupported
from timesense.model import Dataset
from timesense.selection import rfecv
from tests.conftest import blobs, mixed_repeats, pinned_fixture, xor_data

# (kind, class constants of its estimator that the case patches): {} is the
# estimator as `train` builds it
ALL_CASES = [(k, {}) for k in KINDS]
TREE_KINDS = ["dtc", "rf", "gb", "ab", "xgb"]


def case_id(case):
    return case[0] + str(case[1])


def train_case(monkeypatch, case, X, y):
    kind, constants = case
    for name, value in constants.items():
        monkeypatch.setattr(base._ESTIMATORS[kind], name, value)
    return train(ClassifierConfig(kind, seed=0), X, y)


def fitted(model, X, y):
    """``model`` fitted on the rows (X, y) as given, by its one-lane
    ``fit_many``."""
    model.fit_many([model], Lanes(X[None], y[None], np.array([len(y)])))
    return model


def test_estimators_take_no_settings():
    """Each kind is a fixed algorithm: no estimator's constructor takes an
    argument but rf's seed."""
    for kind, estimator in base._ESTIMATORS.items():
        parameters = list(inspect.signature(estimator).parameters)
        assert parameters == (["seed"] if kind == "rf" else []), kind


class TestSeparableBlobs:
    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_perfect_training_accuracy(self, monkeypatch, case):
        X, y = blobs()
        model = train_case(monkeypatch, case, X, y)
        assert np.array_equal(predict(model, X), y)

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_generalizes_to_fresh_draw(self, monkeypatch, case):
        X, y = blobs(seed=0)
        X2, y2 = blobs(seed=9)
        model = train_case(monkeypatch, case, X, y)
        acc = np.mean(predict(model, X2) == y2)
        assert acc == 1.0


class TestXor:
    """XOR separates the linear family from the nonlinear one."""

    @pytest.mark.parametrize("kind", ["lr", "lda"])
    def test_linear_models_fail(self, kind):
        X, y = xor_data()
        model = train(ClassifierConfig(kind, seed=0), X, y)
        assert np.mean(predict(model, X) == y) <= 0.65

    @pytest.mark.parametrize("case", [
        ("dtc", {}),
        ("rf", {}),
        ("knn", {"k": 1}),
        ("svc", {"C": 10.0}),
        ("gb", {}),
        ("xgb", {}),
    ], ids=lambda c: c[0])
    def test_nonlinear_models_succeed(self, monkeypatch, case):
        X, y = xor_data()
        model = train_case(monkeypatch, case, X, y)
        assert np.mean(predict(model, X) == y) >= 0.95


class TestTrainValidation:
    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(InsufficientData, match="both classes"):
            train(ClassifierConfig("lr"), X, np.zeros(10, dtype=int))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput, match="shapes disagree"):
            train(ClassifierConfig("lr"), np.ones((4, 2)), np.array([0, 1]))
        with pytest.raises(InvalidInput, match="shapes disagree"):
            train(ClassifierConfig("lr"), np.ones((4, 2)), np.array([[0], [1], [0], [1]]))

    def test_nonfinite_rejected(self):
        X = np.ones((4, 2)); X[0, 0] = np.nan
        with pytest.raises(InvalidInput, match="must be finite"):
            train(ClassifierConfig("lr"), X, np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("label", [2, 0.5, np.nan, -1])
    def test_label_other_than_0_or_1_rejected(self, label):
        X = np.random.default_rng(0).normal(size=(4, 2))
        y = np.array([0, 1, label, 1])
        with pytest.raises(InvalidInput, match="labels must be exactly 0 or 1"):
            train(ClassifierConfig("lr"), X, y)
        with pytest.raises(InvalidInput, match="labels must be exactly 0 or 1"):
            train_many(ClassifierConfig("rf"), [(X, np.array([0, 1, 0, 1])), (X, y)])

    def test_float_and_bool_labels_of_0_and_1_accepted(self):
        X, y = blobs(d=3)
        expected = predict(train(ClassifierConfig("lr"), X, y), X)
        for labels in (y.astype(float), y.astype(bool)):
            assert np.array_equal(predict(train(ClassifierConfig("lr"), X, labels), X),
                                  expected)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput, match="unknown classifier kind"):
            ClassifierConfig("mlp")

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_without_features_refused(self, kind):
        X, y = blobs(d=3)
        config = ClassifierConfig(kind)
        with pytest.raises(InvalidInput, match="X must have at least one feature column"):
            train(config, X[:, :0], y)
        # the first bad lane's error, not the one-row lane's after it
        with pytest.raises(InvalidInput, match="X must have at least one feature column"):
            train_many(config, [(X, y), (X[:, :0], y), (X[:1], y[:1]), (X, y)])

    def test_predict_dimension_check(self):
        X, y = blobs(d=3)
        model = train(ClassifierConfig("lr"), X, y)
        with pytest.raises(InvalidInput, match="expected 3 features"):
            predict(model, np.ones((2, 5)))


class TestDeterminismAndInvariance:
    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_same_seed_same_scores(self, monkeypatch, case):
        X, y = blobs(gap=2.0)
        s1 = decision_scores(train_case(monkeypatch, case, X, y), X)
        s2 = decision_scores(train_case(monkeypatch, case, X, y), X)
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_row_permutation_invariance(self, monkeypatch, case):
        X, y = blobs(gap=2.0, seed=3)
        perm = np.random.default_rng(5).permutation(len(y))
        s1 = decision_scores(train_case(monkeypatch, case, X, y), X)
        s2 = decision_scores(train_case(monkeypatch, case, X[perm], y[perm]), X)
        assert np.allclose(s1, s2, atol=1e-10)


class TestScoresAndTies:
    def test_zero_score_predicts_slow(self, monkeypatch):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = train_case(monkeypatch, ("knn", {"k": 2}), X, y)
        # both neighbours vote once each -> tied score 0 -> slow
        scores = decision_scores(model, np.array([[0.5]]))
        assert scores[0] == 0.0
        assert predict(model, np.array([[0.5]]))[0] == 0

    def test_knn_memorizes_training_points_k1(self, monkeypatch):
        X, y = blobs(gap=0.5, seed=2)
        model = train_case(monkeypatch, ("knn", {"k": 1}), X, y)
        assert np.array_equal(predict(model, X), y)

    def test_scores_monotone_with_confidence(self):
        X, y = blobs(d=1, gap=4.0)
        model = train(ClassifierConfig("lr"), X, y)
        grid = np.linspace(-2, 6, 20).reshape(-1, 1)
        s = decision_scores(model, grid)
        assert np.all(np.diff(s) > 0)


class TestBlockedScores:
    """decision_scores of a stack (k, rows, d) scores its k blocks in one
    call, each bit for bit as a call on that block alone."""

    @staticmethod
    def assert_blocks_score_as_own_calls(model, rows):
        stack = np.random.default_rng(rows).normal(3.0, 2.0, size=(7, rows, model.feature_count))
        expected = np.stack([decision_scores(model, block) for block in stack])
        assert decision_scores(model, stack).tobytes() == expected.tobytes()
        assert decision_scores(model, stack).shape == (7, rows)

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8])
    def test_each_block_as_its_own_call(self, monkeypatch, case, rows):
        X, y = blobs(gap=1.0, seed=4)
        self.assert_blocks_score_as_own_calls(train_case(monkeypatch, case, X, y), rows)

    @pytest.mark.parametrize("kind", ["rf", "dtc"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8])
    def test_impure_leaves(self, kind, rows):
        """Leaves of equal rows of both classes: their values, such as 1/3,
        round differently when the trees are summed in another order."""
        X, y = mixed_repeats(*blobs(gap=1.0, seed=4))
        model = train(ClassifierConfig(kind, seed=0), X, y)
        nodes = model.estimator.nodes_
        # some leaf value is not dyadic
        assert np.modf(nodes.value[nodes.feature == tree.NO_CHILD] * 2.0**20)[0].any()
        self.assert_blocks_score_as_own_calls(model, rows)

    @pytest.mark.parametrize("kind", KINDS)
    def test_integer_and_list_input_as_float64(self, kind):
        """train and decision_scores convert their input once: integer X,
        as int64 or as nested lists, gives the model and the score bytes of
        float64 X, for a block (n, d) and a stack (k, n, d) alike."""
        rng = np.random.default_rng(6)
        X, y = rng.integers(-4, 5, size=(16, 3)), np.tile([0, 1], 8)
        probe = rng.integers(-4, 5, size=(2, 5, 3))
        config = ClassifierConfig(kind, seed=1)
        reference = train(config, X.astype(float), y)
        for rows, labels in ((X, y), (X.tolist(), y.tolist())):
            model = train(config, rows, labels)
            assert _state(model.estimator) == _state(reference.estimator)
            for block in (probe[0], probe):
                want = _int64(decision_scores(reference, block.astype(float)))
                for given in (block, block.tolist()):
                    assert np.array_equal(_int64(decision_scores(model, given)), want)

    @pytest.mark.parametrize("shape", [(4,), (), (3, 5), (2, 3, 5), (2, 3, 4, 1)])
    def test_rows_must_have_the_model_width(self, shape):
        X, y = blobs()
        model = train(ClassifierConfig("lr"), X, y)
        with pytest.raises(InvalidInput, match="expected 4 features"):
            decision_scores(model, np.ones(shape))


class TestLogisticRegression:
    def test_gradient_matches_finite_differences(self):
        """The stacked gradient and loss of a one-lane stack, padded after
        its rows, against finite differences of the loss."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, 30)
        w = rng.normal(size=4)
        b = rng.normal()
        padded_X = np.concatenate([X, np.full((5, 4), np.inf)])[None]
        padded_y = np.concatenate([y, np.ones(5, dtype=int)])[None]
        stack = NewtonLanes(padded_X, padded_y, np.array([30]))
        z = stack.margins(w[None], np.array([b]))
        assert _same_bits(z[0, :30], X @ w + b)
        assert stack.loss(z, w[None], l2=0.7)[0] == pytest.approx(logistic_loss(w, b, X, y, l2=0.7))
        (grad_w,), (grad_b,) = stack.gradient(sigmoid(z), w[None], l2=0.7)
        eps = 1e-6
        for j in range(4):
            e = np.zeros(4); e[j] = eps
            num = (logistic_loss(w + e, b, X, y, l2=0.7)
                   - logistic_loss(w - e, b, X, y, l2=0.7)) / (2 * eps)
            assert grad_w[j] == pytest.approx(num, abs=1e-5)
        num_b = (logistic_loss(w, b + eps, X, y, l2=0.7)
                 - logistic_loss(w, b - eps, X, y, l2=0.7)) / (2 * eps)
        assert grad_b == pytest.approx(num_b, abs=1e-5)

    def test_stack_values_equal_each_lane_alone(self):
        """Margins, loss, gradient and Hessian of a padded stack of lanes of
        three row counts are bit for bit those of each lane's rows alone,
        and stay so in the stack of some of its lanes."""
        rng = np.random.default_rng(1)
        counts = np.array([9, 9, 12, 30, 30, 30])
        lanes = [(rng.normal(size=(n, 3)), rng.integers(0, 2, n).astype(float)) for n in counts]
        w, b = rng.normal(size=(6, 3)), rng.normal(size=6)
        X = np.full((6, 32, 3), np.inf)
        y = np.ones((6, 32))
        for k, (Xk, yk) in enumerate(lanes):
            X[k, :len(yk)], y[k, :len(yk)] = Xk, yk
        keep = np.array([False, True, True, False, True, True])
        for stack, kept in [(NewtonLanes(X, y, counts), np.arange(6)),
                            (NewtonLanes(X, y, counts)[keep], np.flatnonzero(keep))]:
            z = stack.margins(w[kept], b[kept])
            p = sigmoid(z)
            loss, (gw, gb) = stack.loss(z, w[kept], 0.7), stack.gradient(p, w[kept], 0.7)
            H = stack.hessians(p)
            for i, k in enumerate(kept):
                (Xk, yk), n = lanes[k], counts[k]
                zk = Xk @ w[k] + b[k]
                assert _same_bits(z[i, :n], zk)
                assert _same_bits(loss[i], logistic_loss(w[k], b[k], Xk, yk, 0.7))
                gw_k, gb_k = logistic_gradient(sigmoid(zk), w[k], Xk, yk, 0.7)
                assert _same_bits(gw[i], gw_k) and _same_bits(gb[i], gb_k)
                s = sigmoid(zk) * (1.0 - sigmoid(zk)) / n
                Xa = np.hstack([Xk, np.ones((n, 1))])
                assert _same_bits(H[i], Xa.T @ (Xa * s[:, None]))

    def test_l2_shrinks_weights(self, monkeypatch):
        X, y = blobs(d=2, gap=3.0)
        w_small = train_case(monkeypatch, ("lr", {"l2": 0.01}), X, y)
        w_large = train_case(monkeypatch, ("lr", {"l2": 100.0}), X, y)
        n_small = np.linalg.norm(w_small.estimator.w)
        n_large = np.linalg.norm(w_large.estimator.w)
        assert n_large < n_small


class TestLaneSums:
    """Each lane's sum is bit for bit a 1-D np.sum of its own rows."""

    @staticmethod
    def spread(rng, shape):
        # magnitudes over six decades, so that the order of additions shows
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)

    def test_count_groups(self):
        assert Lanes(None, None, np.array([2, 2, 5, 9, 9, 9])).groups == [
            (slice(0, 2), 2), (slice(2, 3), 5), (slice(3, 6), 9)]

    def test_lanes(self):
        rng = np.random.default_rng(0)
        counts = np.array([1, 3, 8, 8, 9, 17, 17, 40])
        values = self.spread(rng, (3, len(counts), 41))
        out = Lanes(None, None, counts).sums(values)
        assert out.shape == (3, len(counts))
        for s in range(3):
            for b, n in enumerate(counts):
                assert _same_bits(out[s, b], np.sum(values[s, b, :n]))
        # a zero-padded sum rounds differently
        padded = np.where(np.arange(41) < counts[:, None], values, 0.0).sum(axis=-1)
        assert not _same_bits(out, padded)


class TestGenerativeModels:
    def test_gnb_recovers_parameters(self):
        rng = np.random.default_rng(7)
        mu0, mu1 = np.array([0.0, 1.0]), np.array([2.0, -1.0])
        X0 = rng.normal(mu0, 1.0, (4000, 2))
        X1 = rng.normal(mu1, 1.5, (4000, 2))
        X = np.vstack([X0, X1]); y = np.array([0] * 4000 + [1] * 4000)
        model = train(ClassifierConfig("gnb"), X, y)
        est = model.estimator
        assert np.allclose(est.means_[0], mu0, atol=0.05)
        assert np.allclose(est.means_[1], mu1, atol=0.06)
        assert np.allclose(np.sqrt(est.vars_[1]), 1.5, atol=0.075)

    def test_lda_direction_for_shared_covariance(self):
        rng = np.random.default_rng(1)
        X0 = rng.normal([0, 0], [1.0, 1.0], (3000, 2))
        X1 = rng.normal([2, 0], [1.0, 1.0], (3000, 2))
        X = np.vstack([X0, X1]); y = np.array([0] * 3000 + [1] * 3000)
        model = train(ClassifierConfig("lda"), X, y)
        w = model.estimator.w / np.linalg.norm(model.estimator.w)
        assert abs(w[0]) > 0.99  # separating direction is the x-axis

    def test_label_flip_negates_lda_scores(self):
        X, y = blobs(d=3, gap=2.0)
        s1 = decision_scores(train(ClassifierConfig("lda"), X, y), X)
        s2 = decision_scores(train(ClassifierConfig("lda"), X, 1 - y), X)
        assert np.allclose(s1, -s2, atol=1e-8)


def oracle_lda(X, y, ridge=LDA.ridge):
    """LDA's (w, b, means) of one lane's rows, fitted alone: the fit that
    ``LDA.fit_many`` batches."""
    mu0, mu1 = X[y == 0].mean(axis=0), X[y == 1].mean(axis=0)
    centered = X - np.where(y[:, None] == 1, mu1, mu0)
    cov = centered.T @ centered / len(X) + ridge * np.eye(X.shape[1])
    w = np.linalg.solve(cov, mu1 - mu0)
    pi1 = (y == 1).mean()
    return w, float(-0.5 * (mu0 + mu1) @ w + np.log(pi1 / (1 - pi1))), np.stack([mu0, mu1])


def lda_block(rng):
    """1-40 lanes of 3-44 rows (both classes) and 1-24 features, raw or
    rounded to one decimal, in their ``Lanes`` layout with NaN padding.
    About one lane in ten is constant, and about one in ten has a feature
    that separates its classes."""
    k, d = int(rng.integers(1, 41)), int(rng.integers(1, 25))
    counts = np.sort(rng.integers(3, 45, k))
    X, y = np.full((k, counts[-1], d), np.nan), np.ones((k, counts[-1]), dtype=int)
    for b, c in enumerate(counts):
        rows = rng.normal(size=(c, d)) * rng.choice([1, 10, 1000])
        X[b, :c] = np.round(rows, 1) if rng.random() < 0.5 else rows
        y[b, :c] = rng.integers(0, 2, c)
        y[b, :2] = (0, 1)
        shape = rng.random()
        if shape < 0.1:
            X[b, :c] = 1.0
        elif shape < 0.2:
            X[b, :c, rng.integers(d)] = 5.0 * y[b, :c]
    return Lanes(X, y, counts)


class TestLDALanes:
    @pytest.mark.parametrize("seed", range(4))
    def test_each_lane_equals_its_fit_alone(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            lanes = lda_block(rng)
            models = [LDA() for _ in lanes.counts]
            LDA.fit_many(models, lanes)
            for model, X, y, c in zip(models, lanes.X, lanes.y, lanes.counts):
                w, b, means = oracle_lda(X[:c], y[:c])
                assert _state((model.w, model.b, model.means_)) == _state((w, b, means))


# The one-lane fits of knn, gnb, qda and ab before they fitted lanes: each
# lane of their fit_many must equal these. qda kept lists where its batched
# fit keeps arrays; ab searched its stumps one lane at a time.

def oracle_knn(X, y):
    model = KNN()
    model.X_ = np.array(X, dtype=float)
    model.y_ = np.array(y, dtype=int)
    return model


def oracle_gnb(X, y):
    model = GaussianNB()
    eps = model.var_smoothing * max(X.var(axis=0).max(), 1e-30)
    model.means_ = np.stack([X[y == c].mean(axis=0) for c in (0, 1)])
    model.vars_ = np.stack([X[y == c].var(axis=0) + eps for c in (0, 1)])
    model.log_priors_ = np.log(np.array([(y == 0).mean(), (y == 1).mean()]))
    return model


def oracle_qda(X, y):
    model = QDA()
    d = X.shape[1]
    means, inv_covs, logdets = [], [], []
    for c in (0, 1):
        Xc = X[y == c]
        mu = Xc.mean(axis=0)
        cov = (Xc - mu).T @ (Xc - mu) / len(Xc) + model.ridge * np.eye(d)
        sign, logdet = np.linalg.slogdet(cov)
        means.append(mu)
        inv_covs.append(np.linalg.inv(cov))
        logdets.append(logdet)
    model.means_, model.inv_covs_, model.logdets_ = (
        np.array(means), np.array(inv_covs), np.array(logdets))
    model.log_priors_ = np.log(np.array([(y == 0).mean(), (y == 1).mean()]))
    return model


def oracle_ab(X, y):
    """AdaBoost's fit of one lane, each stump from ``oracle_stump``."""
    model = AdaBoost()
    ypm = np.where(y == 1, 1.0, -1.0)
    n = len(X)
    w = np.full(n, 1.0 / n)
    stumps = tree.TreeNodes.empty((model.n_estimators, 3))
    for k in range(model.n_estimators):
        stump = oracle_stump(X, ypm, w)
        j, thr, polarity = stump.feature[0], stump.threshold[0], int(stump.value[2])
        pred = np.where(X[:, j] <= thr, -polarity, polarity).astype(float)
        err = float(np.sum(w[pred != ypm]))
        if err >= 0.5:
            break
        stumps.feature[k, 0], stumps.threshold[k, 0] = j, thr
        stumps.left[k, 0], stumps.right[k, 0] = 1, 2
        stumps.value[k, 1:] = -polarity, polarity
        if err <= 1e-12:
            model.weights_.append(np.log((1 - 1e-12) / 1e-12) / 2)
            break
        alpha = 0.5 * np.log((1 - err) / err)
        model.weights_.append(alpha)
        w = w * np.exp(-alpha * ypm * pred)
        w = w / w.sum()
    kept = len(model.weights_)
    if kept:
        model.nodes_ = ensemble._trimmed(stumps, 0, kept)
    gain = np.zeros((kept, 3))
    gain[:, 0] = model.weights_
    width = int(stumps.feature[:kept, 0].max(initial=-1)) + 1
    model.importances_ = tree.feature_gains(stumps[:kept], gain, width)
    return model


LANE_ORACLES = {"knn": oracle_knn, "gnb": oracle_gnb, "qda": oracle_qda, "ab": oracle_ab}


class TestLanesEqualTheirOneLaneFits:
    """Every lane of knn's, gnb's, qda's and ab's ``fit_many`` equals the
    one-lane fit of its rows, in model state and scores, as bytes."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", sorted(LANE_ORACLES))
    def test_each_lane_equals_its_fit_alone(self, kind, seed):
        rng = np.random.default_rng(seed)
        stumps = set()
        for _ in range(20):
            lanes = lda_block(rng)
            models = [base._build(ClassifierConfig(kind)) for _ in lanes.counts]
            models[0].fit_many(models, lanes)
            probe = rng.normal(size=(6, lanes.X.shape[2])) * 3
            for model, X, y, c in zip(models, lanes.X, lanes.y, lanes.counts):
                oracle = LANE_ORACLES[kind](X[:c], y[:c])
                assert _state(model) == _state(oracle)
                assert (_bits(model.decision_function(probe))
                        == _bits(oracle.decision_function(probe)))
                if kind == "ab":
                    stumps.add(len(model.weights_))
        if kind == "ab":
            # lanes that keep no stump, halt at a perfect one, halt later
            # and run every round
            assert {0, 1, AdaBoost.n_estimators} < stumps
            assert any(1 < k < AdaBoost.n_estimators for k in stumps)


class TestImportance:
    CAPABLE = [(k, {}) for k in ("dtc", "lr", "lda", "rf", "gb", "ab", "xgb")]
    INCAPABLE = [(k, {}) for k in ("svc", "knn", "gnb", "qda")]

    @pytest.mark.parametrize("case", CAPABLE, ids=case_id)
    def test_informative_feature_dominates(self, monkeypatch, case):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(80, 5))
        y = (X[:, 2] > 0).astype(int)
        model = train_case(monkeypatch, case, X, y)
        imp = importance(model)
        assert model.config.supports_importance()
        assert len(imp) == 5
        assert np.all(imp >= 0)
        assert np.argmax(imp) == 2

    @pytest.mark.parametrize("case", INCAPABLE, ids=case_id)
    def test_unsupported_importance_raises(self, monkeypatch, case):
        X, y = blobs(d=3)
        model = train_case(monkeypatch, case, X, y)
        assert not model.config.supports_importance()
        with pytest.raises(Unsupported, match="no feature-importance measure"):
            importance(model)


class TestEnsembles:
    def test_adaboost_alphas_positive(self):
        X, y = blobs(d=3, gap=2.0)
        model = train(ClassifierConfig("ab"), X, y)
        assert len(model.estimator.weights_) >= 1
        assert all(a > 0 for a in model.estimator.weights_)

    def test_adaboost_without_a_stump_weighs_every_feature_zero(self):
        # constant features and balanced labels: the first stump errs by 0.5
        X, y = np.ones((6, 3)), np.array([0, 1] * 3)
        model = train(ClassifierConfig("ab"), X, y)
        assert model.estimator.weights_ == []
        assert np.array_equal(importance(model), np.zeros(3))
        assert np.array_equal(decision_scores(model, X), np.zeros(6))

    def test_rfecv_with_adaboost_on_constant_features(self):
        names = ("a", "b", "c")
        ds = Dataset(np.ones((10, 3)), np.array([0, 1] * 5), np.repeat(np.arange(1, 6), 2), names)
        result = rfecv(ds, ClassifierConfig("ab"))
        assert [len(features) for features, _ in result.trace] == [3, 2, 1]

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_a_cut_between_adjacent_floats_is_kept_at_the_lower_value(self, kind):
        # the midpoint of two adjacent floats rounds onto the upper one; the
        # lower one sends the rows below the cut, and only those, left
        low = np.nextafter(1.0, 2.0)
        high = np.nextafter(low, 2.0)
        assert 0.5 * (low + high) == high
        X, y = np.array([[low]] * 3 + [[high]] * 3), np.repeat([0, 1], 3)
        model = train(ClassifierConfig(kind), X, y)
        nodes = model.estimator.nodes_
        internal = nodes.feature != tree.NO_CHILD
        assert internal[:, 0].all()
        assert (nodes.threshold[internal] == low).all()
        assert np.array_equal(predict(model, X), y)
        assert np.array_equal(importance(model), [1.0])

    @pytest.mark.parametrize("kind", ["gb", "xgb"])
    def test_boosters_refuse_a_cut_that_sends_every_row_left(self, kind):
        # the midpoint threshold between two adjacent floats would keep every
        # row on its left; the boosters cut at the lower value instead, so
        # each tree's root sends the low rows, and only those, left
        low = np.nextafter(1.0, 2.0)
        high = np.nextafter(low, 2.0)
        X, y = np.array([[low]] * 3 + [[high]] * 3), np.repeat([0, 1], 3)
        model = train(ClassifierConfig(kind), X, y)
        nodes = model.estimator.nodes_
        for threshold in nodes.threshold[:, 0]:
            assert np.array_equal(X[:, 0] <= threshold, y == 0)
        scores = decision_scores(model, X)
        assert (scores[y == 0] < 0).all() and (scores[y == 1] > 0).all()

    def test_rf_seed_changes_model(self):
        X, y = blobs(gap=1.0, seed=4)
        s1 = decision_scores(train(ClassifierConfig("rf", seed=0), X, y), X)
        s2 = decision_scores(train(ClassifierConfig("rf", seed=1), X, y), X)
        assert not np.array_equal(s1, s2)

    def test_gb_improves_with_rounds(self, monkeypatch):
        X, y = xor_data(seed=3)
        with monkeypatch.context() as m:
            weak = train_case(m, ("gb", {"n_estimators": 2}), X, y)
        strong = train(ClassifierConfig("gb"), X, y)
        acc_weak = np.mean(predict(weak, X) == y)
        acc_strong = np.mean(predict(strong, X) == y)
        assert acc_strong >= acc_weak
        assert acc_strong >= 0.95


# sha256 of the float64 bytes of decision_scores (training rows, then a fresh
# draw) and of importance, recorded before the tree models shared one split
# search and one layout; gb's and xgb's when their children took their sums
# from the split search.
PINNED = {
    ("blobs", "dtc"): ("3cb7cb4892a664147cbb6dd9b031bf053f7d2264307bf277da4d103ad6f244b6",
                       "079f38ab3493499274d8abd2d1a7acf02025ce5b442cfa8c68cb154bad6afb59"),
    ("blobs", "rf"): ("dcc5ae7f5cf6f9d66169498cd752e0cfd19a925a12b676e19bd4ca7efed4d975",
                      "47a3a3a85d496fefe71df56587e41757166a420de27a3a47f8b8fe24d1dc4ce3"),
    ("blobs", "gb"): ("fa419c5440e17dfa2418281d12b98c37e98edce6ffbdf7a436c00559022e0602",
                      "2cc62fbe2fbe4d69dabc2a9c51dc6d7fb065fbea51e82b95dfc36fc9bef96a5e"),
    ("blobs", "ab"): ("6b5fd003281d267e295166390872eaf70582e983d8754b2df8e2947c40a50156",
                      "4f2ed8f028917feed18d5b6505bb6118e5d68cc71479885dc00eb2e82e6e8eff"),
    ("blobs", "xgb"): ("a8d96f20e793e1a0b8d43925f5e95c97311952398187bf8effc06a68a46abfca",
                       "7c4dc4f6392e83ef5781d4166bdda8038d262b81df17f0b27862ddd5809872d8"),
    ("xor_data", "dtc"): ("eab300ba0509e59394ebd5c4805202eb9ff6a0570c112602bfc4b7486091d157",
                          "353acbbadf6f7e4e62789a961ec3e66a269108d8459558c2704b232b3857d389"),
    ("xor_data", "rf"): ("ba404dc77d46814697c14ad9943d3bba957e3170d05381b2ddf2f5b230783dc7",
                         "33521d21efa3d69a5fb60f73a17b5e416854fecb702031deaaafe67f431e0d91"),
    ("xor_data", "gb"): ("3ef099e63768ff7f7d022b30a85489679d58effc88400c963b9d963c4df22c7f",
                         "8531354eb06e10e985f0649abdd2d9df5f741c15eee421dfbd9de0e2777a2ddb"),
    ("xor_data", "ab"): ("71f95c9c100e5c3820f5ce69e8f231d6397801e9bfd06d7fbd34fc2c590db957",
                         "b080b74920d77467df952857ff4767a5220caa6fa957752a26d9f22d63b9a7a3"),
    ("xor_data", "xgb"): ("93acb7557f975068bbb9536e4e5f2542e78c9c49298f09ed036f00c668f0efd7",
                          "0649f02deea59a9d7fc1b12e87e3fe6351d1d0f8b554ac4cddc1facbb900a739"),
}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("fixture,kind", sorted(PINNED))
def test_tree_models_reproduce_pinned_outputs(fixture, kind):
    X, y, rows = pinned_fixture(fixture)
    model = train(ClassifierConfig(kind, seed=0), X, y)
    scores_digest, importance_digest = PINNED[fixture, kind]
    assert _digest(decision_scores(model, rows)) == scores_digest
    assert _digest(importance(model)) == importance_digest
    # in each tree (row) of the node stack, every internal node splits on a
    # feature below d and both its children come after it in the node list;
    # every leaf has no children
    nodes = model.estimator.nodes_
    for feature, left, right in zip(nodes.feature, nodes.left, nodes.right):
        n = len(feature)
        node = np.arange(n)
        internal = feature != tree.NO_CHILD
        assert np.all((0 <= feature[internal]) & (feature[internal] < X.shape[1]))
        for child in (left, right):
            assert np.all((node[internal] < child[internal]) & (child[internal] < n))
            assert np.all(child[~internal] == tree.NO_CHILD)


def extreme_case(seed):
    """Rows whose columns hold runs of adjacent floats (at 1, at 2^53 and
    beyond, where subtracting 1 rounds back, and at the largest floats) or
    values near +-1.7e308, where the midpoint of two overflows."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 25)), int(rng.integers(1, 4))
    X = np.empty((n, d))
    for j in range(d):
        start = rng.choice([1.0, -1.0, 2.0 ** 53, -(2.0 ** 60), np.finfo(float).max,
                            -np.finfo(float).max])
        run = [start]
        for _ in range(3):
            run.append(np.nextafter(run[-1], -np.sign(start) * np.inf))
        huge = np.array([1.2e308, 1.7e308, 1.79e308]) * rng.choice([-1.0, 1.0])
        X[:, j] = rng.choice(np.array(run) if rng.random() < 0.6 else huge, n)
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    return X, y


def recorded_cuts(monkeypatch):
    """Each ``best_split`` call's sorted values and its output."""
    calls = []
    original = tree.best_split

    def recording(lanes, stats, score):
        out = original(lanes, stats, score)
        calls.append((lanes[1], out))
        return out

    monkeypatch.setattr(tree, "best_split", recording)
    return calls


class TestCutThresholds:
    """``X[:, feature] <= threshold`` sends left exactly the rows of the
    cut that ``best_split`` chose."""

    @pytest.mark.parametrize("kind", TREE_KINDS)
    @pytest.mark.parametrize("seed", range(12))
    def test_every_kept_cut_sends_its_rows_left(self, monkeypatch, kind, seed):
        X, y = extreme_case(seed)
        calls = recorded_cuts(monkeypatch)
        train(ClassifierConfig(kind, seed=seed), X, y)
        kept = 0
        for xs, (col, cut, thr, gain, _) in calls:
            for b in np.flatnonzero(gain > -np.inf):
                values = xs[b, col[b]]
                # the lane's rows; its other rows sort last as inf
                values = values[np.isfinite(values)]
                assert np.array_equal(values <= thr[b], np.arange(len(values)) < cut[b])
                kept += 1
        assert kept > 0

    def test_cases_cover_every_threshold_rule(self, monkeypatch):
        """The cases reach a midpoint that rounds onto the upper value, one
        that overflows either way, and a cut 0 where subtracting 1 rounds
        back onto the smallest value."""
        calls = recorded_cuts(monkeypatch)
        for seed in range(12):
            for kind in TREE_KINDS:
                train(ClassifierConfig(kind, seed=seed), *extreme_case(seed))
        seen = set()
        for xs, (col, cut, thr, gain, _) in calls:
            for b in np.flatnonzero(gain > -np.inf):
                at = xs[b, col[b], cut[b]]
                if cut[b] == 0:
                    seen.add("cut 0, next float down" if at - 1.0 == at else "cut 0, 1 below")
                    continue
                with np.errstate(over="ignore"):
                    mid = 0.5 * (xs[b, col[b], cut[b] - 1] + at)
                seen.add({np.inf: "overflow up", -np.inf: "overflow down"}.get(
                    mid, "rounds up" if mid == at else "midpoint"))
        assert seen == {"cut 0, next float down", "cut 0, 1 below", "overflow up",
                        "overflow down", "rounds up", "midpoint"}


# ---------------------------------------------------------------------------
# Brute-force split search: the per-cut loops the vectorized search replaced.
# ---------------------------------------------------------------------------

def _loop_gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.sum(p * p))


def loop_gini_split(X, y, w, feature_indices):
    total_w = w.sum()
    wy = w * y
    parent_impurity = _loop_gini(np.array([total_w - wy.sum(), wy.sum()]))
    best = None
    for j in feature_indices:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        cw = np.cumsum(w[order])
        cwy = np.cumsum(wy[order])
        for c in np.flatnonzero(xs[1:] > xs[:-1]):
            wl = cw[c]
            wr = total_w - wl
            l_fast = cwy[c]
            r_fast = cwy[-1] - l_fast
            gl = _loop_gini(np.array([wl - l_fast, l_fast]))
            gr = _loop_gini(np.array([wr - r_fast, r_fast]))
            gain = parent_impurity - (wl * gl + wr * gr) / total_w
            thr = 0.5 * (xs[c] + xs[c + 1])
            key = (-gain, j, thr)
            if gain > 1e-12 and (best is None or key < best[:3]):
                best = (-gain, j, thr, gain, wl, l_fast)
    return None if best is None else best[1:]


def loop_gradient_split(X, grad, hess, reg_lambda, min_child_weight):
    def score(g, h):
        return g * g / (h + reg_lambda + 1e-12)

    G, H = grad.sum(), hess.sum()
    parent = score(G, H)
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        cg = np.cumsum(grad[order])
        ch = np.cumsum(hess[order])
        for c in np.flatnonzero(xs[1:] > xs[:-1]):
            hl, hr = ch[c], H - ch[c]
            if hl < min_child_weight or hr < min_child_weight:
                continue
            gain = 0.5 * (score(cg[c], hl) + score(G - cg[c], hr) - parent)
            thr = 0.5 * (xs[c] + xs[c + 1])
            key = (-gain, j, thr)
            if gain > 1e-12 and (best is None or key < best[:3]):
                best = (-gain, j, thr, gain, cg[c], hl)
    return None if best is None else best[1:]


def loop_stump_split(X, ypm, w):
    best = None  # (error, feature, threshold, polarity)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ws = w[order]
        ys = ypm[order]
        cum_pos = np.cumsum(np.where(ys > 0, ws, 0.0))
        cum_neg = np.cumsum(np.where(ys < 0, ws, 0.0))
        for c in np.concatenate([[-1], np.flatnonzero(xs[1:] > xs[:-1])]):
            left_pos = cum_pos[c] if c >= 0 else 0.0
            left_neg = cum_neg[c] if c >= 0 else 0.0
            thr = 0.5 * (xs[c] + xs[c + 1]) if c >= 0 else xs[0] - 1.0
            err_pos = left_pos + (cum_neg[-1] - left_neg)
            err_neg = left_neg + (cum_pos[-1] - left_pos)
            for err, pol in ((err_pos, 1), (err_neg, -1)):
                key = (err, j, thr, pol)
                if best is None or key < best:
                    best = key
    return best[1:]


def split_case(seed):
    """Small matrix with repeated values, a duplicated column (equal gains
    across features), bootstrap-duplicated rows and AdaBoost-style weights."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 30)), int(rng.integers(1, 6))
    X = rng.integers(0, 5, (n, d)).astype(float)
    X[:, rng.random(d) < 0.5] += rng.normal(0, 1, (n, 1))
    if d > 1:
        X[:, -1] = X[:, 0]
    y = rng.integers(0, 2, n)
    boot = rng.integers(0, n, n)
    X, y = X[boot], y[boot]
    w = rng.exponential(1.0, n)
    w /= w.sum()
    return rng, X, y, w


def lane_case(rng, X, *per_row, lanes=5):
    """Ragged lanes over the rows of a split case: lane 0 holds every row in
    order, the others a bootstrap draw of the rows under a random mask that
    keeps at least one row (one-row and two-row lanes come up). Returns the
    lanes' X (B, n, d), row masks (B, n) and each per-row array (B, n)."""
    n = len(X)
    rows = np.vstack([np.arange(n), rng.integers(0, n, (lanes - 1, n))])
    masks = rng.random((lanes, n)) < rng.uniform(0.0, 1.0, (lanes, 1))
    masks[0] = True
    masks[np.arange(lanes), rng.integers(0, n, lanes)] = True
    return (X[rows], masks) + tuple(a[rows] for a in per_row)


def lane_split(split, b, features=None):
    """Lane b's best split of ``best_split``'s output as (feature,
    threshold, gain, the statistics summed left of the cut...), or None."""
    col, _, thr, gain, left = split
    if gain[b] == -np.inf:
        return None
    return ((col[b] if features is None else features[col[b]]), thr[b], gain[b]) + tuple(left[:, b])


def first_three(split):
    return None if split is None else split[:3]


class TestSplitSearchMatchesLoops:
    """The lane-batched search returns in every lane exactly what the
    per-cut loops return for that lane's rows alone."""

    @pytest.mark.parametrize("seed", range(60))
    def test_gini(self, seed):
        rng, X, y, w = split_case(seed)
        feats = np.sort(rng.choice(X.shape[1], size=int(rng.integers(1, X.shape[1] + 1)),
                                   replace=False))
        for weights in (np.ones(len(y)), w):
            lane_x, masks, lane_y, lane_w = lane_case(rng, X, y, weights)
            # lane totals as a per-node search sums them: 1-D, in row order
            total_w = np.array([lw[m].sum() for lw, m in zip(lane_w, masks)])
            total_fast = np.array([(lw * ly)[m].sum() for lw, ly, m in zip(lane_w, lane_y, masks)])
            stats = np.where(masks, np.array([lane_w, lane_w * lane_y]), 0.0)
            split = tree.best_split(tree.sort_lanes(lane_x[:, :, feats], masks),
                                    stats, tree.gini_score(total_w, total_fast))
            for b, m in enumerate(masks):
                rows = (lane_x[b][m], lane_y[b][m], lane_w[b][m], feats)
                assert lane_split(split, b, feats) == loop_gini_split(*rows)
                assert oracle_gini_split(*rows) == first_three(loop_gini_split(*rows))

    @pytest.mark.parametrize("seed", range(60))
    def test_gradient(self, seed):
        rng, X, y, w = split_case(seed)
        p = rng.uniform(0.05, 0.95, len(y))
        grad, hess = p - y, p * (1 - p)
        for split_hess in (np.ones(len(y)), hess):
            lane_x, masks, lane_g, lane_h = lane_case(rng, X, grad, split_hess)
            G = np.array([g[m].sum() for g, m in zip(lane_g, masks)])
            H = np.array([h[m].sum() for h, m in zip(lane_h, masks)])
            stats = np.where(masks, np.array([lane_g, lane_h]), 0.0)
            for reg_lambda, mcw in ((0.0, 1e-6), (1.0, 1e-3)):
                split = tree.best_split(tree.sort_lanes(lane_x, masks), stats,
                                        tree.gradient_score(G, H, reg_lambda, mcw))
                for b, m in enumerate(masks):
                    rows = (lane_x[b][m], lane_g[b][m], lane_h[b][m], reg_lambda, mcw)
                    expected = loop_gradient_split(*rows)
                    assert lane_split(split, b) == expected
                    oracle = oracle_gradient_split(rows[0], np.column_stack(rows[1:3]),
                                                   (G[b], H[b]), reg_lambda, mcw)
                    assert (None if oracle is None else oracle[:3] + tuple(oracle[3])) == expected

    def test_lanes_may_share_one_x(self):
        rng, X, y, _ = split_case(3)
        masks = rng.random((4, len(y))) < 0.7
        masks[:, 0] = True
        stats = np.where(masks, np.array([np.ones(len(y)), 1.0 * y])[:, None], 0.0)
        score = tree.gini_score(masks.sum(axis=1) * 1.0, (masks & (y == 1)).sum(axis=1) * 1.0)
        shared = tree.best_split(tree.sort_lanes(X[None], masks), stats, score)
        stacked = tree.best_split(tree.sort_lanes(np.broadcast_to(X, (4,) + X.shape), masks),
                                  stats, score)
        assert all(np.array_equal(a, b) for a, b in zip(shared, stacked))

    @pytest.mark.parametrize("seed", range(60))
    def test_stump(self, seed):
        rng, X, y, w = split_case(seed)
        ypm = np.where(y == 1, 1.0, -1.0)
        lanes = tree.sort_lanes(X[None], np.ones((1, len(y)), bool))
        for weights in (np.full(len(y), 1.0 / len(y)), w):
            assert lane_stumps(tree.stump_split(lanes, ypm[None], weights[None])) == [
                loop_stump_split(X, ypm, weights)]

    @pytest.mark.parametrize("seed", range(60))
    def test_stump_of_every_lane(self, seed):
        """One call searches ragged lanes, each with its own rows, labels and
        weights (0 off its rows), and a selection of the sorted lanes
        searches just those lanes."""
        rng, X, y, w = split_case(seed)
        lane_x, masks, lane_y, lane_w = lane_case(rng, X, y, w)
        ypm = np.where(lane_y == 1, 1.0, -1.0)
        weights = np.where(masks, lane_w, 0.0)
        lanes = tree.sort_lanes(lane_x, masks)
        expected = [loop_stump_split(lane_x[b][m], ypm[b][m], weights[b][m])
                    for b, m in enumerate(masks)]
        assert lane_stumps(tree.stump_split(lanes, ypm, weights)) == expected
        keep = np.array([1, 3, 4])
        assert lane_stumps(tree.stump_split(tuple(a[keep] for a in lanes), ypm, weights)) == [
            expected[b] for b in keep]

    def test_stump_tie_breaks(self):
        def stump(X, ypm, w):
            lanes = tree.sort_lanes(X[None], np.ones((1, len(X)), bool))
            return lane_stumps(tree.stump_split(lanes, ypm[None], w[None]))

        # the cut below all values and both real cuts each err by 1
        X = np.array([[0.0], [1.0], [2.0]])
        ypm = np.array([1.0, -1.0, 1.0])
        w = np.ones(3)
        assert stump(X, ypm, w) == [loop_stump_split(X, ypm, w)] == [(0, -1.0, 1)]
        # both polarities err by 1: polarity -1 wins
        X, ypm, w = np.zeros((2, 1)), np.array([1.0, -1.0]), np.ones(2)
        assert stump(X, ypm, w) == [loop_stump_split(X, ypm, w)] == [(0, -1.0, -1)]


def lane_stumps(split):
    """Each lane's (column, threshold, polarity) of ``stump_split``'s arrays."""
    col, thr, polarity = split
    assert col.shape == thr.shape == polarity.shape == (len(col),)
    return [(int(c), float(t), int(p)) for c, t, p in zip(col, thr, polarity)]


# ---------------------------------------------------------------------------
# Tree oracles: the per-node split search, the recursive growers and the
# per-tree walk that the lane-batched growers and the stacked walk replaced.
# ---------------------------------------------------------------------------

class OracleNodes:
    """One tree's node lists; predict walks it level by level."""

    def __init__(self):
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []

    def add(self, feature=tree.NO_CHILD, threshold=0.0, value=0.0):
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(tree.NO_CHILD)
        self.right.append(tree.NO_CHILD)
        self.value.append(value)
        return len(self.feature) - 1

    def finalize(self):
        self.feature = np.asarray(self.feature, dtype=int)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=int)
        self.right = np.asarray(self.right, dtype=int)
        self.value = np.asarray(self.value, dtype=float)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        shape = X.shape[:-1]
        X = X.reshape(-1, X.shape[-1])
        idx = np.zeros(len(X), dtype=int)
        while True:
            internal = self.feature[idx] != tree.NO_CHILD
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            node = idx[rows]
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            idx[rows] = np.where(go_left, self.left[node], self.right[node])
        return self.value[idx].reshape(shape)


def oracle_best_split(X, stats, score):
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    cum = np.cumsum(stats[order], axis=0)
    left = np.concatenate([np.zeros_like(cum[:1]), cum[:-1]])
    gain = score(left, cum[-1], np.arange(len(X))[:, None])
    steps = np.concatenate([np.ones((1, X.shape[1]), bool), xs[1:] > xs[:-1]])
    gain = np.where(steps, gain, -np.inf)
    col, i = np.unravel_index(np.argmax(gain.T), gain.T.shape)
    if gain[i, col] == -np.inf:
        return None
    thr = 0.5 * (xs[i - 1, col] + xs[i, col]) if i > 0 else xs[0, col] - 1.0
    return col, thr, gain[i, col], left[i, col], cum[-1, col]


def oracle_gini_split(X, y, w, features):
    total_w = w.sum()
    wy = w * y
    parent = tree._gini(total_w - wy.sum(), wy.sum())

    def score(left, last, n_left):
        wl, l_fast = left[..., 0], left[..., 1]
        wr, r_fast = total_w - wl, last[..., 1] - l_fast
        child = wl * tree._gini(wl - l_fast, l_fast) + wr * tree._gini(wr - r_fast, r_fast)
        gain = parent - child / total_w
        return np.where((n_left > 0) & (gain > 1e-12), gain, -np.inf)

    best = oracle_best_split(X[:, features], np.column_stack([w, wy]), score)
    if best is None:
        return None
    col, thr, gain, _, _ = best
    return features[col], thr, gain


def oracle_gradient_split(X, stats, totals, reg_lambda, min_child_weight):
    """The best cut by gradient and hessian, the first two columns of
    ``stats`` (n, k), whose node totals are ``totals``: (feature, threshold,
    gain, the k statistics summed left of the cut), or None."""
    G, H = totals

    def objective(g, h):
        return g * g / (h + reg_lambda + 1e-12)

    parent = objective(G, H)

    def score(left, last, n_left):
        gl, hl = left[..., 0], left[..., 1]
        hr = H - hl
        gain = 0.5 * (objective(gl, hl) + objective(G - gl, hr) - parent)
        allowed = ((n_left > 0) & (hl >= min_child_weight) & (hr >= min_child_weight)
                   & (gain > 1e-12))
        return np.where(allowed, gain, -np.inf)

    best = oracle_best_split(X, stats, score)
    return None if best is None else best[:4]


def oracle_classification_tree(X, y, max_features=None, feature_rng=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n, d = X.shape
    nodes = OracleNodes()
    importance = np.zeros(d)

    def grow(X, y):
        fast = float(y.sum())
        node = nodes.add(value=(fast - (len(y) - fast)) / len(y))
        if len(y) < 2 or len(np.unique(y)) < 2:
            return node
        if feature_rng is not None and max_features < d:
            feats = np.sort(feature_rng.choice(d, size=max_features, replace=False))
        else:
            feats = np.arange(d)
        best = oracle_gini_split(X, y, np.ones(len(y)), feats)
        if best is None:
            return node
        j, thr, gain = best
        mask = X[:, j] <= thr
        if mask.all() or not mask.any():
            return node
        importance[j] += len(y) / n * gain
        nodes.feature[node] = j
        nodes.threshold[node] = thr
        nodes.left[node] = grow(X[mask], y[mask])
        nodes.right[node] = grow(X[~mask], y[~mask])
        return node

    grow(X, y)
    s = importance.sum()
    return nodes.finalize(), importance / s if s > 0 else importance


def oracle_gradient_tree(X, grad, split_hess, hess, max_depth, reg_lambda, min_child_weight):
    """The root sums each statistic over its rows in row order; a child takes
    its sums from its parent's split, summed in the chosen column's stable
    order: the left child those left of the cut, the right child the
    parent's less those."""
    nodes = OracleNodes()
    importance = np.zeros(X.shape[1])
    stats = np.column_stack([grad, split_hess, hess])

    def grow(idx, sums, depth):
        g, split_h, h = sums
        node = nodes.add(value=-g / (h + reg_lambda + 1e-12))
        if depth >= max_depth or len(idx) < 2:
            return node
        best = oracle_gradient_split(X[idx], stats[idx], (g, split_h), reg_lambda,
                                     min_child_weight)
        if best is None:
            return node
        j, thr, gain, left = best
        mask = X[idx, j] <= thr
        importance[j] += gain
        nodes.feature[node] = j
        nodes.threshold[node] = thr
        nodes.left[node] = grow(idx[mask], left, depth + 1)
        nodes.right[node] = grow(idx[~mask], sums - left, depth + 1)
        return node

    grow(np.arange(len(grad)), np.array([grad.sum(), split_hess.sum(), hess.sum()]), 0)
    return nodes.finalize(), importance


def oracle_stump(X, ypm, w):
    stats = np.column_stack([np.where(ypm > 0, w, 0.0), np.where(ypm < 0, w, 0.0)])

    def errors(left, last):
        return (left[..., 0] + (last[..., 1] - left[..., 1]),
                left[..., 1] + (last[..., 0] - left[..., 0]))

    j, thr, _, left, last = oracle_best_split(
        X, stats, lambda left, last, n_left: -np.minimum(*errors(left, last)))
    err_pos, err_neg = errors(left, last)
    polarity = -1 if err_neg <= err_pos else 1
    nodes = OracleNodes()
    nodes.add(feature=j, threshold=thr)
    nodes.left[0] = nodes.add(value=-polarity)
    nodes.right[0] = nodes.add(value=polarity)
    return nodes.finalize()


class OracleTrees:
    """The tree models as they were before lanes: one recursive grower call
    per tree and one walk per tree. ``model`` is the estimator whose class
    constants, and rf's seed, the oracle follows."""

    def __init__(self, kind, model):
        self.kind, self.model = kind, model
        self.trees, self.importances, self.weights, self.offset = [], [], [], 0.0

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        getattr(self, "_fit_" + self.kind)(X, y, self.model)
        return self

    def _fit_dtc(self, X, y, model):
        nodes, imp = oracle_classification_tree(X, y)
        self.trees, self.importances, self.weights = [nodes], [imp], [1.0]

    def _fit_rf(self, X, y, model):
        n, d = X.shape
        for t in range(model.n_estimators):
            tree_rng = np.random.default_rng([model.seed, t])
            idx = tree_rng.integers(0, n, size=n)
            if len(np.unique(y[idx])) < 2:
                idx = np.arange(n)
            nodes, imp = oracle_classification_tree(
                X[idx], y[idx], max_features=max(1, int(np.sqrt(d))), feature_rng=tree_rng)
            self.trees.append(nodes)
            self.importances.append(imp)
            self.weights.append(1.0)

    def _fit_booster(self, X, y, model):
        y = np.asarray(y, dtype=float)
        if not model.second_order_splits:
            p0 = np.clip(y.mean(), 1e-12, 1 - 1e-12)
            self.offset = float(np.log(p0 / (1 - p0)))
        F = np.full(len(y), self.offset)
        for _ in range(model.n_estimators):
            p = sigmoid(F)
            grad = p - y
            hess = np.maximum(p * (1 - p), 1e-12)
            split_hess = hess if model.second_order_splits else np.ones(len(y))
            nodes, gain = oracle_gradient_tree(X, grad, split_hess, hess, model.max_depth,
                                               model.reg_lambda, model.min_child_weight)
            F = F + model.learning_rate * nodes.predict(X)
            self.trees.append(nodes)
            self.importances.append(gain)
            self.weights.append(model.learning_rate)

    def _fit_ab(self, X, y, model):
        ypm = np.where(np.asarray(y) == 1, 1.0, -1.0)
        n, d = X.shape
        w = np.full(n, 1.0 / n)
        for _ in range(model.n_estimators):
            stump = oracle_stump(X, ypm, w)
            pred = stump.predict(X)
            err = float(np.sum(w[pred != ypm]))
            if err >= 0.5:
                break
            marks = np.zeros(d)
            marks[stump.feature[0]] = 1.0
            self.trees.append(stump)
            self.importances.append(marks)
            if err <= 1e-12:
                self.weights.append(np.log((1 - 1e-12) / 1e-12) / 2)
                break
            alpha = 0.5 * np.log((1 - err) / err)
            self.weights.append(alpha)
            w = w * np.exp(-alpha * ypm * pred)
            w = w / w.sum()

    def tree_values(self, X):
        return np.array([t.predict(X) for t in self.trees])

    def decision_function(self, X):
        if self.kind == "dtc":
            return self.trees[0].predict(X)
        if self.kind == "rf":
            values = self.tree_values(X)
            if values.shape[-1] == 1:
                return np.ascontiguousarray(np.moveaxis(values, 0, -1)).mean(axis=-1)
            return values.mean(axis=0)
        F = np.full(np.shape(X)[:-1], self.offset)
        for weight, t in zip(self.weights, self.trees):
            F = F + weight * t.predict(X)
        return F

    def importance(self):
        if self.kind == "dtc":
            return self.importances[0]
        if self.kind == "rf":
            imp = np.mean(self.importances, axis=0)
        elif self.kind == "booster":
            imp = np.sum(self.importances, axis=0)
        elif not self.trees:
            return np.zeros(0)
        else:
            imp = np.sum([a * m for a, m in zip(self.weights, self.importances)], axis=0)
            imp = imp[:max(t.feature[0] for t in self.trees) + 1]
        s = imp.sum()
        return imp / s if s > 0 else imp


# (label, estimator, oracle kind, class constants the case patches); the
# rf's seed is 3
ORACLE_CASES = [
    ("dtc", DecisionTree, "dtc", {}),
    ("rf", RandomForest, "rf", {"n_estimators": 30}),
    ("gb", GradientBoosting, "booster", {"n_estimators": 30}),
    ("xgb", XGBoost, "booster", {"n_estimators": 30}),
    ("xgb-depth1", XGBoost, "booster", {"n_estimators": 20, "max_depth": 1}),
    ("ab", AdaBoost, "ab", {}),
]


def tree_case(seed):
    """Small training set and a fresh draw: n in [2, 30], d in [1, 6] (d = 1
    every fifth seed), integer-valued columns (equal values), a duplicated
    column (equal gains), and for some seeds a single fast row, which a
    bootstrap draw often loses."""
    rng = np.random.default_rng(seed)
    n = 2 if seed % 7 == 0 else int(rng.integers(3, 31))
    d = 1 if seed % 5 == 0 else int(rng.integers(2, 7))
    X = rng.integers(0, 4, (n, d)).astype(float)
    X[:, rng.random(d) < 0.5] += rng.normal(0, 1, (n, 1))
    if d > 2:
        X[:, -1] = X[:, 0]
    y = rng.integers(0, 2, n)
    if seed % 3 == 0:
        y[:] = 0
    y[:2] = (0, 1)
    fresh = rng.integers(-1, 5, (12, d)) + rng.normal(0, 0.5, (12, d))
    return X, y, fresh


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


class TestTreeModelsMatchOracles:
    """The lane-batched growers and the stacked walk give bit for bit the
    trees, leaf values, scores and importances of the recursive growers and
    the per-tree walk."""

    @pytest.mark.parametrize("label,estimator,kind,constants", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    @pytest.mark.parametrize("seed", range(20))
    def test_bitwise_equal(self, monkeypatch, label, estimator, kind, constants, seed):
        for name, value in constants.items():
            monkeypatch.setattr(estimator, name, value)
        X, y, fresh = tree_case(seed)
        model = fitted(RandomForest(3) if estimator is RandomForest else estimator(), X, y)
        oracle = OracleTrees(kind, model).fit(X, y)
        assert model.weights_ == oracle.weights
        assert _bits(model.importance()) == _bits(oracle.importance())
        if oracle.trees:
            # every training row's leaf value in every tree
            assert _bits(tree.walk(model.nodes_, X)) == _bits(oracle.tree_values(X))
        for rows in (X, fresh, fresh.reshape(3, 4, -1), fresh.reshape(12, 1, -1), fresh[:1]):
            assert (_bits(model.decision_function(rows))
                    == _bits(oracle.decision_function(rows)))

    def test_cases_cover_the_bootstrap_fallback(self):
        fallbacks = 0
        for seed in range(20):
            X, y, _ = tree_case(seed)
            for t in range(30):
                idx = np.random.default_rng([3, t]).integers(0, len(y), size=len(y))
                fallbacks += len(np.unique(y[idx])) < 2
        assert fallbacks > 0


@pytest.mark.parametrize("estimator", [GradientBoosting, XGBoost], ids=["gb", "xgb"])
def test_boosting_trees_fill_preorder_slots(monkeypatch, estimator):
    """The split node at slot p and depth k of every gb and xgb tree has
    its children at slots p + 1 and p + 2^(max_depth - k)."""
    monkeypatch.setattr(estimator, "n_estimators", 30)
    max_depth, deeper = estimator.max_depth, 0
    for seed in range(20):
        X, y, _ = tree_case(seed)
        nodes = fitted(estimator(), X, y).nodes_
        for t in range(len(nodes.feature)):
            depth, _ = _node_depths_and_rows(nodes[t], X)
            for p in np.flatnonzero(nodes.feature[t] != tree.NO_CHILD):
                assert (nodes.left[t, p], nodes.right[t, p]) == (
                    p + 1, p + 2 ** (max_depth - depth[p]))
                deeper += depth[p] > 0
    # the cases split below the root too
    assert deeper > 0


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestBatchedCalls:
    """Guards against a return to one search per node or one walk per tree."""

    @pytest.mark.parametrize("data", [blobs(), blobs(gap=2.0), xor_data()],
                             ids=["blobs", "blobs-gap2", "xor"])
    def test_forest_searches_each_step_in_one_call(self, monkeypatch, data):
        calls = _count_calls(monkeypatch, tree, "best_split")
        X, y = data
        model = train(ClassifierConfig("rf"), X, y)
        splits = (model.estimator.nodes_.feature != tree.NO_CHILD).sum(axis=1)
        # every tree searches its root in the first call; every search of
        # these data splits, so the calls are as many as the largest tree's
        # split nodes
        lanes, stats, score = calls[0]
        assert stats.shape[1] == 100
        assert len(calls) == splits.max()

    def test_booster_searches_each_level_in_one_call(self, monkeypatch):
        X, y = blobs(gap=2.0)
        calls = _count_calls(monkeypatch, tree, "best_split")
        grown = []
        grow = ensemble.grow_boosting_trees

        def counted(*args):
            before = len(calls)
            out = grow(*args)
            # the round's trees grow into the stack view the call passes
            one = tree.TreeNodes(*(a[0] for a in args[4].arrays()))
            grown.append((one, len(calls) - before))
            return out

        monkeypatch.setattr(ensemble, "grow_boosting_trees", counted)
        booster = fitted(XGBoost(), X, y)
        assert len(grown) == booster.n_estimators
        for nodes, searches in grown:
            # a level is searched when it holds a node of two or more rows
            # and the level above split
            depth, rows = _node_depths_and_rows(nodes, X)
            levels = [k for k in range(booster.max_depth)
                      if (k == 0 or np.any((depth == k - 1) & (nodes.feature >= 0)))
                      and np.any((depth == k) & (rows >= 2))]
            assert searches == len(levels) <= booster.max_depth

    @pytest.mark.parametrize("rows", [(40, 4), (5, 8, 4), (8, 1, 4)])
    def test_forest_scores_in_one_walk(self, monkeypatch, rows):
        X, y = blobs()
        model = train(ClassifierConfig("rf"), X, y)
        calls = _count_calls(monkeypatch, ensemble, "walk")
        decision_scores(model, np.zeros(rows))
        assert len(calls) == 1


def _node_depths_and_rows(nodes, X):
    """Depth of every node of one tree and the training rows reaching it."""
    depth = np.full(len(nodes.feature), -1)
    rows = np.zeros(len(nodes.feature), dtype=int)
    depth[0], rows[0] = 0, len(X)
    reach = {0: np.ones(len(X), bool)}
    for node in range(len(nodes.feature)):
        if node not in reach or nodes.feature[node] == tree.NO_CHILD:
            continue
        go_left = X[:, nodes.feature[node]] <= nodes.threshold[node]
        for child, side in ((nodes.left[node], go_left), (nodes.right[node], ~go_left)):
            reach[child] = reach[node] & side
            depth[child], rows[child] = depth[node] + 1, reach[child].sum()
    return depth, rows


# ---------------------------------------------------------------------------
# Solver oracles: Platt's SMO solver, which the svc used before WSS2, and the
# Newton-LR solver as it was before it kept per-state values; both evaluate
# every value afresh where it is used. The svc's dual objective must reach
# Platt's; lr must equal its oracle bit for bit.
# ---------------------------------------------------------------------------

class OracleSMOSVC(SMOSVC):
    """Platt (1998): pair steps in index-ordered sweeps, KKT tolerance
    ``tol``, at most ``max_passes`` sweeps."""

    tol, max_passes = 1e-3, 200

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        ypm = np.where(np.asarray(y) == 1, 1.0, -1.0)
        n = len(ypm)
        var = X.var()
        self.gamma_ = 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        self.X_ = X
        self.y_ = ypm
        K = rbf_kernel(X, X, self.gamma_)
        alpha = np.zeros(n)
        b = 0.0
        C, tol = self.C, self.tol

        def f(i):
            return float((alpha * ypm) @ K[:, i] + b)

        passes, converged = 0, False
        examine_all = True
        while passes < self.max_passes:
            passes += 1
            changed = 0
            for i in range(n):
                Ei = f(i) - ypm[i]
                if not ((ypm[i] * Ei < -tol and alpha[i] < C)
                        or (ypm[i] * Ei > tol and alpha[i] > 0)):
                    continue
                if not examine_all and not (0 < alpha[i] < C):
                    continue
                errors = (alpha * ypm) @ K + b - ypm
                j = int(np.argmax(np.abs(Ei - errors) - np.where(np.arange(n) == i, np.inf, 0.0)))
                if j == i:
                    continue
                if self._take_step(i, j, alpha, K, ypm, Ei, errors[j]):
                    changed += 1
                    b = self._b
                else:
                    for j in range(n):
                        if j == i:
                            continue
                        if self._take_step(i, j, alpha, K, ypm, Ei, f(j) - ypm[j]):
                            changed += 1
                            b = self._b
                            break
            if changed == 0:
                if examine_all:
                    converged = True
                    break
                examine_all = True
            else:
                examine_all = False

        self.alpha_ = alpha
        self.b_ = b
        self.n_iter_, self.converged_ = passes, converged
        sv = alpha > 1e-12
        self.support_X_ = X[sv]
        self.support_coef_ = (alpha * ypm)[sv]
        return self

    def _take_step(self, i, j, alpha, K, ypm, Ei, Ej):
        C = self.C
        ai_old, aj_old = alpha[i], alpha[j]
        if ypm[i] != ypm[j]:
            L = max(0.0, aj_old - ai_old)
            H = min(C, C + aj_old - ai_old)
        else:
            L = max(0.0, ai_old + aj_old - C)
            H = min(C, ai_old + aj_old)
        if H - L < 1e-12:
            return False
        eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
        if eta >= -1e-12:
            return False
        aj = aj_old - ypm[j] * (Ei - Ej) / eta
        aj = min(max(aj, L), H)
        if abs(aj - aj_old) < 1e-7 * (aj + aj_old + 1e-7):
            return False
        ai = ai_old + ypm[i] * ypm[j] * (aj_old - aj)
        b_old = getattr(self, "_b", 0.0)
        b1 = b_old - Ei - ypm[i] * (ai - ai_old) * K[i, i] - ypm[j] * (aj - aj_old) * K[i, j]
        b2 = b_old - Ej - ypm[i] * (ai - ai_old) * K[i, j] - ypm[j] * (aj - aj_old) * K[j, j]
        if 0 < ai < C:
            self._b = b1
        elif 0 < aj < C:
            self._b = b2
        else:
            self._b = 0.5 * (b1 + b2)
        alpha[i], alpha[j] = ai, aj
        return True


def logistic_loss(w, b, X, y, l2):
    """Mean negative log-likelihood plus an L2 penalty on the weights."""
    z = X @ w + b
    # log(1 + exp(-m)) with m = z for y=1, -z for y=0, computed stably
    m = np.where(y == 1, z, -z)
    nll = np.mean(np.logaddexp(0.0, -m))
    return nll + 0.5 * l2 * float(w @ w)


def logistic_gradient(p, w, X, y, l2):
    """Gradient of ``logistic_loss`` given the probabilities ``p`` at (w, b)."""
    r = (p - y) / len(y)
    return X.T @ r + l2 * w, float(np.sum(r))


class OracleLR(LogisticRegressionNewton):
    """One lane at a time, every value evaluated afresh; counts the times a
    step is halved in ``halvings_``."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        loss = logistic_loss(w, b, X, y, self.l2)
        self.n_iter_, self.converged_, self.halvings_ = 0, False, 0
        for _ in range(self.max_iter):
            gw, gb = logistic_gradient(sigmoid(X @ w + b), w, X, y, self.l2)
            if max(np.max(np.abs(gw)), abs(gb)) < self.tol:
                self.converged_ = True
                break
            p = sigmoid(X @ w + b)
            s = p * (1.0 - p) / n
            Xa = np.hstack([X, np.ones((n, 1))])
            H = Xa.T @ (Xa * s[:, None])
            H[:d, :d] += self.l2 * np.eye(d)
            H += 1e-10 * np.eye(d + 1)
            g = np.concatenate([gw, [gb]])
            step = np.linalg.solve(H, g)
            t = 1.0
            for _ in range(40):
                w_new, b_new = w - t * step[:d], b - t * step[d]
                new_loss = logistic_loss(w_new, b_new, X, y, self.l2)
                if new_loss <= loss + 1e-15:
                    break
                t *= 0.5
                self.halvings_ += 1
            w, b, loss = w_new, b_new, new_loss
            self.n_iter_ += 1
        self.w, self.b = w, b
        return self


# sha256 of decision_scores (training rows, then a fresh draw): lr's recorded
# before its solver kept per-state values, svc's when WSS2 replaced Platt's
# solver.
PINNED_SOLVERS = {
    ("blobs", "svc"): "2e7b40677ae5dc74b0ead0f6caf178ca51166cb9560864e966e70610a96fe5ba",
    ("blobs", "lr"): "6c9f2f54ac760fd502f61510787cbf37a60826a70b09c83476841b4380509f3f",
    ("xor_data", "svc"): "a113b6415b919d180600fa294c68fc22f67b0d5e9e68aada61c86d276080a606",
    ("xor_data", "lr"): "65925ff44b988562502bd3889bf74a676b5b271844197f5fbbe2c64c6935084b",
}


def solver_case(seed):
    """Small problem with both classes: n in [4, 60], d in [1, 6], some rows
    duplicated, and a scale or offset that varies the kernel's conditioning."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 61)), int(rng.integers(1, 7))
    if seed % 4 == 0:
        d = 1
    X = rng.normal(0.0, float(rng.choice([0.3, 1.0, 3.0])), (n, d))
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    X[y == 1] += float(rng.uniform(0.0, 2.0))
    dup = rng.integers(0, n, int(rng.integers(0, n // 3 + 1)))
    X[rng.integers(0, n, len(dup))] = X[dup]
    return rng, X, y


def select_case(seed):
    """A fit of the select workload's SVC SFS: one min-max scaled feature,
    9-11 rows, random labels of both classes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(9, 12))
    X = rng.random((n, 1))
    X = (X - X.min()) / (X.max() - X.min())
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    return X, y


# a select case whose solve by Platt's solver ends at its sweep cap of 200
CAPPED_SELECT_CASE = 30


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def svm_dual(model, X, y):
    """The dual objective ``alpha Q alpha / 2 - sum(alpha)`` of a fitted svc
    on its training rows; the solver minimizes it."""
    ypm = np.where(np.asarray(y) == 1, 1.0, -1.0)
    Q = ypm[:, None] * ypm * rbf_kernel(X, X, model.gamma_)
    return 0.5 * model.alpha_ @ Q @ model.alpha_ - model.alpha_.sum()


def assert_kkt(model, X, y):
    """alpha lies in the box with y . alpha = 0, the maximal violating
    pair's gap, from a gradient computed afresh, is below eps, and every free
    support vector scores y f(x) = 1 within eps."""
    C, eps, a = model.C, model.eps, model.alpha_
    ypm = np.where(np.asarray(y) == 1, 1.0, -1.0)
    assert ((0 <= a) & (a <= C)).all()
    assert abs(a @ ypm) <= 1e-12 * max(a.sum(), 1.0)
    G = (ypm[:, None] * ypm * rbf_kernel(X, X, model.gamma_)) @ a - 1.0
    score = -ypm * G
    up = np.where(ypm > 0, a < C, a > 0)
    down = np.where(ypm > 0, a > 0, a < C)
    # the fresh gradient rounds apart from the solver's by far less than 1e-10
    assert score[up].max() - score[down].min() < eps + 1e-10
    free = (0 < a) & (a < C)
    assert np.all(np.abs(ypm[free] * model.decision_function(X[free]) - 1.0) < eps + 1e-10)


def assert_reaches_platt(X, y):
    """The svc converges, meets the KKT conditions at eps, and its dual
    objective is Platt's or lower, with a slack of 1e-9 relative."""
    new, old = fitted(SMOSVC(), X, y), OracleSMOSVC().fit(X, y)
    assert _same_bits(new.gamma_, old.gamma_)
    assert new.converged_
    assert_kkt(new, X, y)
    platt = svm_dual(old, X, y)
    assert svm_dual(new, X, y) <= platt + 1e-9 * abs(platt)


class TestSolversMatchOracles:
    """The svc's WSS2 solver reaches at least the dual objective of Platt's
    solver; the lr solver keeps per-state values yet returns exactly what its
    oracle, which evaluates every value afresh, returns."""

    @pytest.mark.parametrize("seed", range(120))
    def test_smo(self, monkeypatch, seed):
        rng, X, y = solver_case(seed)
        monkeypatch.setattr(SMOSVC, "C", (0.1, 1.0, 10.0)[seed % 3])
        assert_reaches_platt(X, y)

    @pytest.mark.parametrize("seed", range(40))
    def test_smo_on_select_shaped_fits(self, seed):
        assert_reaches_platt(*select_case(seed))

    def test_a_select_shaped_fit_ends_at_the_sweep_cap(self):
        """Platt's solver ends this fit at its sweep cap, short of the
        optimum; WSS2 converges on it to a lower dual objective."""
        X, y = select_case(CAPPED_SELECT_CASE)
        capped = OracleSMOSVC().fit(X, y)
        assert (capped.n_iter_, capped.converged_) == (OracleSMOSVC.max_passes, False)
        new = fitted(SMOSVC(), X, y)
        assert new.converged_ and new.n_iter_ < 50
        assert_kkt(new, X, y)
        platt = svm_dual(capped, X, y)
        assert svm_dual(new, X, y) < platt - 1e-4 * abs(platt)

    @pytest.mark.parametrize("seed", range(120))
    def test_lr(self, monkeypatch, seed):
        rng, X, y = solver_case(seed)
        monkeypatch.setattr(LogisticRegressionNewton, "l2", (0.01, 1.0, 100.0)[seed % 3])
        new = fitted(LogisticRegressionNewton(), X, y)
        old = OracleLR().fit(X, y)
        assert _same_bits(new.w, old.w)
        assert _same_bits(new.b, old.b)

    def test_smo_refit_equals_fresh_fit(self):
        _, X1, y1 = solver_case(7)
        _, X2, y2 = solver_case(8)
        svc = fitted(fitted(SMOSVC(), X1, y1), X2, y2)
        fresh = fitted(SMOSVC(), X2, y2)
        assert _same_bits(svc.alpha_, fresh.alpha_)
        assert _same_bits(svc.b_, fresh.b_)
        # the oracle carries b over from its first fit, which shows here
        assert OracleSMOSVC().fit(X1, y1).fit(X2, y2).b_ != fresh.b_

    @pytest.mark.parametrize("fixture,kind", sorted(PINNED_SOLVERS))
    def test_solver_models_reproduce_pinned_outputs(self, fixture, kind):
        X, y, rows = pinned_fixture(fixture)
        model = train(ClassifierConfig(kind, seed=0), X, y)
        assert _digest(decision_scores(model, rows)) == PINNED_SOLVERS[fixture, kind]


def qp_case(seed):
    """A dual QP small enough for SLSQP: 4-20 distinct rows of 1-4 features
    and both classes, so its optimum is unique."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 21)), int(rng.integers(1, 5))
    X = rng.normal(0.0, float(rng.choice([0.3, 1.0, 3.0])), (n, d))
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    X[y == 1] += float(rng.uniform(0.0, 2.0))
    return X, y


def slsqp_alpha(X, y, gamma, C):
    """The dual QP's minimizer: the alpha of ``scipy.optimize.minimize``
    (SLSQP), polished. The alphas SLSQP leaves at 0 or C, within 1e-8 C,
    stay there. The free alphas F and the offset b solve the KKT linear
    system ``Q_FF a_F + y_F b = 1 - Q_FB a_B``, ``y_F . a_F = -y_B . a_B``
    over the alphas B at a bound; with no free alpha, b is the middle of
    the range the bounds allow. The polished point must meet the KKT
    conditions within 1e-9."""
    ypm = np.where(y == 1, 1.0, -1.0)
    Q = ypm[:, None] * ypm * rbf_kernel(X, X, gamma)
    solved = minimize(lambda a: 0.5 * a @ Q @ a - a.sum(), np.zeros(len(y)),
                      jac=lambda a: Q @ a - 1.0, method="SLSQP", bounds=[(0.0, C)] * len(y),
                      constraints=[{"type": "eq", "fun": lambda a: a @ ypm,
                                    "jac": lambda a: ypm}],
                      options={"ftol": 1e-13, "maxiter": 2000})
    alpha = np.where(solved.x <= 1e-8 * C, 0.0, np.where(solved.x >= C * (1 - 1e-8), C, solved.x))
    free = (0 < alpha) & (alpha < C)
    F, B = np.flatnonzero(free), np.flatnonzero(~free)
    if len(F):
        kkt = np.block([[Q[np.ix_(F, F)], ypm[F, None]], [ypm[None, F], np.zeros((1, 1))]])
        rhs = np.r_[1.0 - Q[np.ix_(F, B)] @ alpha[B], -ypm[B] @ alpha[B]]
        solution = np.linalg.solve(kkt, rhs)
        alpha[F], b = solution[:-1], solution[-1]
    else:
        # y_i b >= -y_i G_i bounds b below where y_i alpha_i sits at its low
        # end (alpha 0 and y +1, or alpha C and y -1), above elsewhere
        bound = -ypm * (Q @ alpha - 1.0)
        below = (alpha == 0) == (ypm > 0)
        lo, hi = bound[below].max(initial=-np.inf), bound[~below].min(initial=np.inf)
        b = lo if hi == np.inf else hi if lo == -np.inf else 0.5 * (lo + hi)
    # y_i f(x_i) - 1 is 0 at a free alpha, >= 0 at 0 and <= 0 at C
    margin = Q @ alpha - 1.0 + ypm * b
    assert np.all((-1e-9 <= alpha) & (alpha <= C + 1e-9))
    assert abs(alpha @ ypm) <= 1e-9
    assert np.all(np.abs(margin[free]) <= 1e-9)
    assert np.all(margin[alpha == 0] >= -1e-9) and np.all(margin[alpha == C] <= 1e-9)
    return alpha


class TestDualQpOracle:
    """WSS2 against a general QP solver on the same dual, its point polished
    to the KKT conditions."""

    @pytest.mark.parametrize("seed", range(40))
    def test_alpha_matches_slsqp(self, monkeypatch, seed):
        X, y = qp_case(seed)
        monkeypatch.setattr(SMOSVC, "C", (0.1, 1.0, 10.0)[seed % 3])
        svc = fitted(SMOSVC(), X, y)
        assert svc.converged_
        assert_kkt(svc, X, y)
        reference = slsqp_alpha(X, y, svc.gamma_, SMOSVC.C)
        oracle = SMOSVC()
        oracle.gamma_, oracle.alpha_ = svc.gamma_, reference
        optimum = svm_dual(oracle, X, y)
        assert svm_dual(svc, X, y) <= optimum + 1e-9 * abs(optimum)
        # at eps 1e-6, alpha is as exact as the conditioning of Q allows
        # (up to 2e-5 off here); a tighter gap must give the polished alpha
        monkeypatch.setattr(SMOSVC, "eps", 1e-10)
        assert np.abs(fitted(SMOSVC(), X, y).alpha_ - reference).max() <= 1e-6


class TestSmoProducts:
    """SMOSVC.fit_many writes the kernels of all lanes of one row count,
    from one stacked product, into one (lanes, n, n) buffer. A lane's model
    equals its fit alone only while each lane's gamma and kernel round as
    ``rbf_kernel`` on its rows alone does, at any place in a stack of any
    height; a numpy or BLAS that rounds them otherwise fails here first."""

    @pytest.mark.parametrize("n", range(2, 61))
    def test_buffered_products_round_as_the_plain_ones(self, n):
        rng = np.random.default_rng(n)
        d = int(rng.integers(1, 4))
        counts = np.sort(np.r_[rng.integers(2, n + 1, 5), n, n])
        lanes = [rng.normal(0.0, float(rng.choice([0.3, 1.0, 3.0])), (c, d)) for c in counts]
        lanes[1][:] = 0.5  # constant rows: gamma 1
        X = np.full((len(counts), n, d), np.inf)
        for Xb, rows in zip(X, lanes):
            Xb[:len(rows)] = rows
        gamma, K = svm._kernels(Lanes(X, None, counts))
        for g, k, rows in zip(gamma, K, lanes):
            var, c = rows.var(), len(rows)
            alone = 1.0 / (d * var) if var > 0 else 1.0
            assert _same_bits(g, alone)
            assert np.array_equal(_int64(k[:c, :c]), _int64(rbf_kernel(rows, rows, alone)))
            assert not k[c:].any() and not k[:, c:].any()


class TestSolverConvergence:
    """A solver that hits its iteration cap says so: svc's cap counts pair
    steps, lr's Newton steps."""

    @pytest.mark.parametrize("route", ["train", "train_many"])
    @pytest.mark.parametrize("kind", ["svc", "lr"])
    def test_a_solver_reports_its_iteration_cap(self, monkeypatch, kind, route):
        X, y = blobs(gap=2.0)
        config = ClassifierConfig(kind)

        def fits():
            if route == "train":
                return [train(config, X, y).estimator]
            lanes = [(X, y), (X[5:], y[5:]), (X[:-7], y[:-7])]
            return [m.estimator for m in train_many(config, lanes)]

        full = fits()
        assert all(f.converged_ and 1 < f.n_iter_ < f.max_iter for f in full)
        monkeypatch.setattr(base._ESTIMATORS[kind], "max_iter", 1)
        assert [(f.n_iter_, f.converged_) for f in fits()] == [(1, False)] * len(full)


# ---------------------------------------------------------------------------
# train_many: each lane's model is bit for bit the one train gives for that
# lane alone, and for the tree kinds the one of the per-fit oracle.
# ---------------------------------------------------------------------------

def _state(value):
    """Everything an estimator holds, comparable bit for bit: arrays as
    their bytes (floats through int64 views), floats as their bit pattern."""
    if isinstance(value, tree.TreeNodes):
        return tuple(_state(a) for a in value.arrays())
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        data = a.view(np.int64) if a.dtype == np.float64 else a
        return str(a.dtype), a.shape, data.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).view(np.int64).item()
    if isinstance(value, (list, tuple)):
        return tuple(_state(v) for v in value)
    if hasattr(value, "__dict__"):
        return type(value).__name__, tuple(sorted((k, _state(v)) for k, v in vars(value).items()))
    return value


def _int64(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_same_model(model, reference, probe):
    assert model.kind == reference.kind and model.config == reference.config
    assert model.feature_count == reference.feature_count
    assert _state(model.estimator) == _state(reference.estimator)
    assert np.array_equal(_int64(decision_scores(model, probe)),
                          _int64(decision_scores(reference, probe)))
    if model.config.supports_importance():
        assert np.array_equal(_int64(importance(model)), _int64(importance(reference)))


def lane_pool(seed, n=25, d=4):
    """Rows with tied values (integer-valued columns), a duplicated column
    and a fresh probe."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, (n, d)).astype(float)
    X[:, 1:3] += rng.normal(0, 1, (n, 2))
    X[:, -1] = X[:, 0]
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    return X, y, rng.normal(1.5, 1.5, (9, d))


def ragged_lanes(seed):
    """LOSO-like folds of one pool: 24, 23 and 25 rows, and two of 24 that
    leave out different rows."""
    X, y, probe = lane_pool(seed)
    keep = [np.r_[0:24], np.r_[0:23], np.r_[0:25], np.r_[0:10, 11:25], np.r_[0:2, 4:25, 2]]
    return [(X[k], y[k]) for k in keep], probe


def stopping_lanes():
    """Lanes that stop early beside one that grows: constant features (every
    gain -inf; AdaBoost's first stump errs by 0.5 and none is kept), one
    feature that separates the classes (pure children; a perfect first
    stump halts AdaBoost), and one pool lane."""
    (X, y), probe = ragged_lanes(3)[0][0], lane_pool(3)[2]
    constant = (np.ones((8, 4)), np.tile([0, 1], 4))
    separable = np.random.default_rng(1).normal(size=(14, 4))
    separable[:, 2] = np.repeat([0.0, 5.0], 7)
    return [constant, (separable, np.repeat([0, 1], 7)), (X, y)], probe


def mixed_width_lanes():
    """Lanes of 3 and of 4 features in one call."""
    lanes, probe = ragged_lanes(5)
    narrow = [(X[:, :3], y) for X, y in (lanes[1], lanes[3])]
    return [lanes[0], narrow[0], lanes[2], narrow[1]], probe


LANE_SETS = {
    "ragged": lambda: ragged_lanes(0),
    "ragged-2": lambda: ragged_lanes(1),
    "single": lambda: (ragged_lanes(2)[0][:1], ragged_lanes(2)[1]),
    "stopping": stopping_lanes,
    "mixed-width": mixed_width_lanes,
}


class TestTrainMany:
    @pytest.mark.parametrize("lane_set", sorted(LANE_SETS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_each_lane_equals_its_own_train(self, kind, lane_set):
        lanes, probe = LANE_SETS[lane_set]()
        config = ClassifierConfig(kind, seed=4)
        models = train_many(config, lanes)
        assert len(models) == len(lanes)
        for model, (X, y) in zip(models, lanes):
            assert_same_model(model, train(config, X, y), probe[:, :X.shape[1]])

    @pytest.mark.parametrize("kind,block,blocks", [
        ("dtc", 1, 5), ("rf", 1, 5), ("gb", 1, 5), ("xgb", 1, 5), ("lr", 1, 5),
        # 1000 entries hold every dtc or lr lane (25 rows, 4 features) and
        # two boosting lanes (4 nodes a level); a forest of 100 trees
        # exceeds them and takes a block alone; 200 hold two lr lanes
        ("dtc", 1000, 1), ("rf", 1000, 5), ("gb", 1000, 3), ("xgb", 1000, 3),
        ("lr", 1000, 1), ("lr", 200, 3),
        # an svc lane of n rows holds its (n, n) kernel: 1300 entries hold
        # two lanes of 23 or 24 rows, 5000 all five lanes
        ("svc", 1, 5), ("svc", 1300, 3), ("svc", 5000, 1),
        # an lda lane holds a centered copy of its rows and its (4, 4)
        # covariance: 300 entries hold two lanes of 23-24 rows
        ("lda", 1, 5), ("lda", 300, 3), ("lda", 1000, 1)])
    def test_lanes_split_into_blocks_equal_one_block(self, monkeypatch, kind, block, blocks):
        lanes, probe = ragged_lanes(6)
        config = ClassifierConfig(kind, seed=2)
        whole = train_many(config, lanes)
        monkeypatch.setattr("timesense.classifiers.lanes.FIT_BLOCK", block)
        sizes = []
        original = Lanes.blocks

        def counted(self, lane_cost):
            for part, cut in original(self, lane_cost):
                # each block is cut to its longest lane
                assert cut.X.shape[1] == cut.counts[-1] == self.counts[part][-1]
                sizes.append(len(cut.counts))
                yield part, cut

        monkeypatch.setattr(Lanes, "blocks", counted)
        for model, reference in zip(train_many(config, lanes), whole):
            assert_same_model(model, reference, probe)
        assert len(sizes) == blocks and sum(sizes) == len(lanes)

    def test_svc_lanes_that_stop_at_different_steps_or_at_the_cap(self, monkeypatch):
        """Ragged lanes that converge at different steps beside one that hits
        the cap, and a lane of twin rows of both labels: a pair of twins has
        curvature 0 and so takes TAU, which makes it the first working
        pair."""
        lanes = [select_case(s) for s in (1, 7, 0, 8, 2, 18)]
        X, y = select_case(3)
        lanes.append((np.vstack([X, X]), np.r_[y, 1 - y]))
        config = ClassifierConfig("svc")
        with monkeypatch.context() as m:
            m.setattr(SMOSVC, "max_iter", 1)
            first = train(config, *lanes[-1]).estimator
        assert _same_bits(first.support_X_[0], first.support_X_[1])
        assert first.support_coef_.tolist() == [-SMOSVC.C, SMOSVC.C]
        steps = [train(config, X, y).estimator.n_iter_ for X, y in lanes]
        # lane 5 alone needs 44 steps, the others 4-18
        monkeypatch.setattr(SMOSVC, "max_iter", 30)
        models = train_many(config, lanes)
        probe = np.linspace(-0.5, 1.5, 9)[:, None]
        for model, (X, y) in zip(models, lanes):
            assert_same_model(model, train(config, X, y), probe)
        stops = [(m.estimator.n_iter_, m.estimator.converged_) for m in models]
        assert stops[5] == (30, False)
        assert all(c for _, c in stops[:5] + stops[6:])
        assert [n for n, _ in stops[:5]] == steps[:5] and len(set(steps[:5])) == 5

    def test_lanes_keep_their_own_seeds(self):
        lanes, probe = ragged_lanes(7)
        configs = [ClassifierConfig("rf", seed=s) for s in (3, 1, 4, 1, 5)]
        models = train_many(configs, lanes)
        for model, config, (X, y) in zip(models, configs, lanes):
            assert_same_model(model, train(config, X, y), probe)
        # lanes 1 and 3 share a seed but not their rows; 0 and 1 the reverse
        assert _state(models[0].estimator) != _state(models[1].estimator)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_lane_without_both_classes_raises_as_train_does(self, kind):
        lanes, _ = ragged_lanes(8)
        bad = (lanes[1][0], np.zeros(len(lanes[1][1]), dtype=int))
        config = ClassifierConfig(kind)
        with pytest.raises(InsufficientData) as alone:
            train(config, *bad)
        with pytest.raises(InsufficientData) as batched:
            train_many(config, [lanes[0], bad, lanes[2]])
        assert str(batched.value) == str(alone.value) == "training data must contain both classes"

    @pytest.mark.parametrize("kind", ["gb", "xgb"])
    def test_a_kept_model_owns_its_trees(self, kind):
        """One model kept of a block of 120 retains its own nodes, not the
        block's stack of every lane's trees."""
        lanes = [lane for seed in range(24) for lane in ragged_lanes(seed)[0]]
        config = ClassifierConfig(kind)
        train_many(config, lanes[:2])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = train_many(config, lanes)[7]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        own = sum(a.nbytes for a in kept.estimator.nodes_.arrays())
        assert retained <= 2 * own

    def test_configs_must_be_one_per_lane_of_one_kind(self):
        lanes, _ = ragged_lanes(9)
        with pytest.raises(InvalidInput, match="one config per lane"):
            train_many([ClassifierConfig("gb"), ClassifierConfig("xgb")], lanes[:2])
        with pytest.raises(InvalidInput, match="one config per lane"):
            train_many([ClassifierConfig("gb")], lanes[:2])
        assert train_many(ClassifierConfig("gb"), []) == []

    def test_adaboost_halts_in_some_lanes_only(self):
        lanes, _ = stopping_lanes()
        stumps = [len(m.estimator.weights_) for m in train_many(ClassifierConfig("ab"), lanes)]
        assert stumps[0] == 0 and stumps[1] == 1 and stumps[2] > 1

    def test_stopping_lanes_stop(self):
        lanes, _ = stopping_lanes()
        for kind in ("dtc", "gb", "xgb"):
            constant, separable, grown = (
                m.estimator.nodes_ for m in train_many(ClassifierConfig(kind), lanes))
            assert (constant.feature == tree.NO_CHILD).all()
            assert separable.depth == 1 and grown.depth > 1


class TestPaddingIsNeverRead:
    """The ``Lanes`` contract: a fit reads no padding row. Each kind fits the
    ``Lanes`` that ``_training_lanes`` builds and the same lanes with their
    padding overwritten, to equal model state bytes."""

    @staticmethod
    def fit_states(kind, lanes):
        models = [base._build(ClassifierConfig(kind, seed=5)) for _ in lanes.counts]
        models[0].fit_many(models, lanes)
        return [_state(model) for model in models]

    @pytest.mark.parametrize("padding", ["nan", "-inf", "random"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_overwritten_padding_gives_equal_models(self, kind, padding):
        lanes, _ = ragged_lanes(15)
        X, y = lanes[0]
        (_, built), = base._training_lanes(lanes + [(X[:9], y[:9])])
        X, y, pad = built.X.copy(), built.y.copy(), ~built.valid
        if padding == "random":
            rng = np.random.default_rng(1)
            X[pad] = rng.normal(0.0, 3.0, (pad.sum(), X.shape[2]))
            y[pad] = rng.integers(0, 2, pad.sum())
        else:
            X[pad] = float(padding)
        assert pad.sum() >= 16
        assert self.fit_states(kind, Lanes(X, y, built.counts)) == self.fit_states(kind, built)


class TestForestRowWeights:
    """dtc and rf grow each tree on row weights of its lane of the block's
    ``Lanes``: rf's weights are its bootstrap's draw counts, or ones where
    the bootstrap loses a class, and dtc's one tree takes every row once."""

    SEEDS = [3, 4, 5, 6, 7, 8]

    def grown(self, monkeypatch, kind):
        """The block's ``Lanes`` and the (lanes, lane, weights) that
        ``grow_forest`` receives: the ragged lanes and a lane of 6 rows with
        one fast row, which about a third of its bootstraps lose."""
        lanes = ragged_lanes(15)[0] + [(np.arange(12.0).reshape(6, 2) % 5,
                                        np.array([0, 0, 0, 1, 0, 0]))]
        (_, built), = base._training_lanes([(X[:, :2], y) for X, y in lanes])
        calls = _count_calls(monkeypatch, ensemble, "grow_forest")
        models = [base._build(ClassifierConfig(kind, seed=seed)) for seed in self.SEEDS]
        models[0].fit_many(models, built)
        (call,) = calls
        return built, call

    @pytest.mark.parametrize("kind", ["dtc", "rf"])
    def test_grows_on_the_blocks_lanes(self, monkeypatch, kind):
        built, (lanes, lane, weights) = self.grown(monkeypatch, kind)
        assert lanes is built
        trees = base._ESTIMATORS[kind].n_estimators
        assert np.array_equal(lane, np.repeat(np.arange(len(built.counts)), trees))
        assert weights.shape == (len(lane), built.X.shape[1])

    def test_rf_weights_are_bootstrap_draw_counts(self, monkeypatch):
        built, (_, lane, weights) = self.grown(monkeypatch, "rf")
        fallbacks = 0
        for i, b in enumerate(lane.tolist()):
            n = built.counts[b]
            boot = np.random.default_rng([self.SEEDS[b], i % RandomForest.n_estimators]
                                         ).integers(0, n, size=n)
            lost = len(np.unique(built.y[b, boot])) < 2
            fallbacks += lost
            own = np.ones(n, dtype=int) if lost else np.bincount(boot, minlength=n)
            assert np.array_equal(weights[i], np.r_[own, np.zeros(weights.shape[1] - n, int)])
            assert weights[i].sum() == n
        assert fallbacks > 0

    def test_dtc_takes_every_row_once(self, monkeypatch):
        built, (_, _, weights) = self.grown(monkeypatch, "dtc")
        assert np.array_equal(weights, built.valid)


def tied_lanes():
    """Lanes of 1, 2 and 3 features, several of each (rows, width) shape,
    with values in {-0.0, 0.0, 1.0}: rows tie on their leading keys, repeat
    whole, and repeat with the other label; labels come as int, bool and
    float."""
    rng = np.random.default_rng(14)
    lanes = []
    for n, d in [(6, 1), (9, 2), (6, 1), (9, 2), (7, 2), (6, 1), (9, 3), (9, 2), (2, 3)]:
        X = rng.choice([-0.0, 0.0, 1.0], (n, d))
        y = rng.integers(0, 2, n)
        y[:2] = (0, 1)
        X[-1], y[-1] = X[0], 1 - y[0]
        lanes.append((X, y))
    lanes[2] = (lanes[2][0], lanes[2][1].astype(bool))
    lanes[3] = (lanes[3][0].tolist(), lanes[3][1].astype(float))
    return lanes


class TestTrainingLanes:
    """The lanes of one width are checked and sorted as one stack, with the
    rows and errors of the per-lane check."""

    def test_rows_equal_those_of_each_lane_alone(self):
        lanes = tied_lanes()
        placed = []
        for index, stack in base._training_lanes(lanes):
            X, y, counts = stack.X, stack.y, stack.counts
            assert list(counts) == sorted(counts)
            for b, (i, n) in enumerate(zip(index, counts)):
                placed.append(i)
                for got, want in zip((X[b, :n], y[b, :n]), base._training_rows(*lanes[i])):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes()
                assert np.isposinf(X[b, n:]).all()
        assert sorted(placed) == list(range(len(lanes)))

    def test_one_sort_per_width(self, monkeypatch):
        widths = []

        def counted(X, y):
            widths.append(X.shape[-1])
            return canonical_order(X, y)

        monkeypatch.setattr(base, "canonical_order", counted)
        base._training_lanes(tied_lanes())
        assert sorted(widths) == [1, 2, 3]

    @pytest.mark.parametrize("spoilt", [
        {1: "nan"}, {5: "one class"}, {7: "label 2"}, {8: "label 2"}, {0: "short y"},
        {6: "one row"}, {4: "label column"}, {1: "nan", 3: "label 2"},
        {1: "label 2", 3: "nan"}, {3: "one class", 7: "nan"}, {2: "label column", 5: "nan"},
        {3: "no features"}, {2: "no features", 5: "nan"}, {1: "one class", 4: "no features"}],
        ids=str)
    def test_a_bad_lane_raises_as_the_first_bad_lane_alone(self, spoilt):
        lanes = tied_lanes()
        for at, how in spoilt.items():
            lanes[at] = _spoilt(lanes[at], how)
        with pytest.raises((InvalidInput, InsufficientData)) as alone:
            for X, y in lanes:
                base._training_rows(X, y)
        with pytest.raises(type(alone.value)) as batched:
            base._training_lanes(lanes)
        assert str(batched.value) == str(alone.value)
        assert SPOILT_MESSAGES[spoilt[min(spoilt)]] in str(batched.value)


SPOILT_MESSAGES = {"nan": "must be finite", "one class": "both classes",
                   "label 2": "exactly 0 or 1", "short y": "shapes disagree",
                   "one row": "at least 2", "label column": "shapes disagree",
                   "no features": "at least one feature column"}


@pytest.mark.parametrize("how", ["nan", "label 2", "one class", "text"])
def test_a_refused_lane_carries_no_stacked_error(how):
    """The error a refused lane raises hides the stacked check's error, so a
    traceback shows the one error the lane alone gives."""
    lanes = tied_lanes()
    X, y = lanes[2]
    lanes[2] = (np.full(np.shape(X), "a"), y) if how == "text" else _spoilt(lanes[2], how)
    with pytest.raises((InvalidInput, InsufficientData)) as batched:
        base._training_lanes(lanes)
    assert batched.value.__context__ is None or batched.value.__suppress_context__


def _spoilt(lane, how):
    """The lane with one fault that the training-row checks refuse."""
    X, y = np.array(lane[0], dtype=float), np.array(lane[1], dtype=float)
    if how == "nan":
        X[1, 0] = np.nan
    elif how == "one class":
        y[:] = 1
    elif how == "label 2":
        y[0] = 2
    elif how == "short y":
        y = y[:-1]
    elif how == "one row":
        X, y = X[:1], y[:1]
    elif how == "label column":
        y = y[:, None]
    elif how == "no features":
        X = X[:, :0]
    return X, y


# the oracle of each tree kind
ORACLE_KINDS = {"dtc": "dtc", "rf": "rf", "ab": "ab", "gb": "booster", "xgb": "booster"}


class TestTrainManyMatchesOracles:
    """The batched fits of every lane against the per-fit oracle: the
    recursive growers, one booster round and one forest at a time."""

    @pytest.mark.parametrize("lane_set", ["ragged", "stopping"])
    @pytest.mark.parametrize("kind", sorted(ORACLE_KINDS))
    def test_bitwise_equal(self, kind, lane_set):
        lanes, probe = LANE_SETS[lane_set]()
        for model, (X, y) in zip(train_many(ClassifierConfig(kind, seed=6), lanes), lanes):
            order = canonical_order(X, y)
            est = model.estimator
            oracle = OracleTrees(ORACLE_KINDS[kind], est).fit(X[order], y[order])
            assert est.weights_ == oracle.weights
            assert _bits(est.importance()) == _bits(oracle.importance())
            if oracle.trees:
                assert _bits(tree.walk(est.nodes_, X)) == _bits(oracle.tree_values(X))
            assert _bits(est.decision_function(probe)) == _bits(oracle.decision_function(probe))


def heavy_tailed_case(seed):
    """Cauchy features at one of three scales and random labels: a full
    Newton step on such rows can raise the loss, and the solve halves it."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 20)), int(rng.integers(1, 3))
    X = rng.standard_cauchy((n, d)) * rng.choice([1, 10, 100])
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    return X, y


# (seed, l2) of heavy-tailed cases whose solve halves a step
HALVING_CASES = [(576, 1.0), (259, 1e-3), (316, 1e-3), (618, 1e-3)]


def duplicated_row_lanes():
    """Lanes with rows repeated: some rows twice, and every row three times
    with the last copy relabelled."""
    X, y = ragged_lanes(12)[0][0]
    return [(np.vstack([X, X[:6]]), np.r_[y, y[:6]]), mixed_repeats(X[:8], y[:8]), (X, y)]


LR_LANE_SETS = {
    "ragged": lambda: ragged_lanes(0)[0],
    "mixed-width": lambda: mixed_width_lanes()[0],
    "stopping": lambda: stopping_lanes()[0],
    "duplicated-rows": duplicated_row_lanes,
    "heavy-tailed": lambda: [heavy_tailed_case(s) for s in range(8)],
}


def assert_lr_lanes_match(lanes):
    """Every lane of ``train_many("lr")`` against OracleLR on its rows in
    canonical order and against its one-lane fit: w and b bit for bit,
    n_iter_ and converged_. Returns the oracles."""
    config = ClassifierConfig("lr")
    oracles = []
    for model, (X, y) in zip(train_many(config, lanes), lanes):
        order = canonical_order(X, y)
        oracle = OracleLR().fit(X[order], y[order])
        est = model.estimator
        for ref in (oracle, train(config, X, y).estimator):
            assert np.array_equal(_int64(est.w), _int64(ref.w))
            assert _int64(est.b) == _int64(ref.b)
            assert (est.n_iter_, est.converged_) == (ref.n_iter_, ref.converged_)
        oracles.append(oracle)
    return oracles


class TestTrainManyLogisticRegression:
    """lr fits the lanes of each width in one Newton loop; each lane is bit
    for bit the per-lane oracle's fit and its own fit."""

    @pytest.mark.parametrize("lane_set", sorted(LR_LANE_SETS))
    def test_each_lane_matches_the_oracle_and_its_own_fit(self, lane_set):
        assert_lr_lanes_match(LR_LANE_SETS[lane_set]())

    def test_lanes_stop_at_different_steps(self):
        oracles = assert_lr_lanes_match(stopping_lanes()[0] + LR_LANE_SETS["heavy-tailed"]())
        steps = [o.n_iter_ for o in oracles]
        assert steps[0] == 0 and len(set(steps)) > 3
        assert all(o.converged_ for o in oracles)

    @pytest.mark.parametrize("seed,l2", HALVING_CASES)
    def test_a_solve_that_halves_matches_the_oracle(self, monkeypatch, seed, l2):
        monkeypatch.setattr(LogisticRegressionNewton, "l2", l2)
        oracle, = assert_lr_lanes_match([heavy_tailed_case(seed)])
        assert oracle.halvings_ > 0

    def test_lanes_that_halve_beside_lanes_that_do_not(self, monkeypatch):
        monkeypatch.setattr(LogisticRegressionNewton, "l2", 1e-3)
        oracles = assert_lr_lanes_match([heavy_tailed_case(s) for s in (259, 0, 316, 2, 618, 3)])
        assert [o.halvings_ > 0 for o in oracles] == [True, False] * 3

    def test_an_iteration_cap_of_one_over_mixed_lanes(self, monkeypatch):
        monkeypatch.setattr(LogisticRegressionNewton, "max_iter", 1)
        oracles = assert_lr_lanes_match(mixed_width_lanes()[0] + stopping_lanes()[0])
        # the constant lane of the stopping set converges before a step
        assert [(o.n_iter_, o.converged_) for o in oracles] == (
            [(1, False)] * 4 + [(0, True), (1, False), (1, False)])


class TestTrainManyBatches:
    """One search call serves a level, or a lockstep step, of every lane."""

    @pytest.mark.parametrize("kind", ["gb", "xgb"])
    def test_boosters_search_each_level_of_every_lane_in_one_call(self, monkeypatch, kind):
        lanes, _ = ragged_lanes(10)
        calls = _count_calls(monkeypatch, tree, "best_split")
        alone = []
        for X, y in lanes:
            before = len(calls)
            train(ClassifierConfig(kind), X, y)
            alone.append(len(calls) - before)
        before = len(calls)
        train_many(ClassifierConfig(kind), lanes)
        batched = calls[before:]
        # each round searches as many levels as its deepest lane
        assert max(alone) <= len(batched) <= 100 * 3 < sum(alone)
        assert batched[0][1].shape[1] == len(lanes)

    def test_logistic_regression_solves_each_step_of_every_lane_in_one_call(self, monkeypatch):
        lanes = ragged_lanes(13)[0] + stopping_lanes()[0]
        steps = [m.estimator.n_iter_ for m in train_many(ClassifierConfig("lr"), lanes)]
        calls = _count_calls(monkeypatch, np.linalg, "solve")
        train_many(ClassifierConfig("lr"), lanes)
        # lanes leave the loop as they converge: the constant lane at once
        assert len(calls) == max(steps) < sum(steps)
        assert [len(H) for H, _ in calls] == [sum(s > k for s in steps) for k in range(max(steps))]

    def test_forest_grows_every_lane_in_one_lockstep(self, monkeypatch):
        lanes, _ = ragged_lanes(11)
        calls = _count_calls(monkeypatch, tree, "best_split")
        alone = []
        for X, y in lanes:
            before = len(calls)
            train(ClassifierConfig("rf"), X, y)
            alone.append(len(calls) - before)
        before = len(calls)
        train_many(ClassifierConfig("rf"), lanes)
        assert len(calls) - before == max(alone)
        assert calls[before][1].shape[1] == 100 * len(lanes)
