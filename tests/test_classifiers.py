import hashlib

import numpy as np
import pytest

from timesense.classifiers import ensemble, tree
from timesense.classifiers.ensemble import AdaBoost, Booster, DecisionTree, RandomForest
from timesense.classifiers.knn import KNN
from timesense.classifiers.base import (
    KINDS,
    ClassifierConfig,
    decision_scores,
    importance,
    predict,
    train,
)
from timesense.classifiers.linear import (
    LogisticRegressionNewton,
    logistic_gradient,
    logistic_loss,
    sigmoid,
)
from timesense.classifiers.svm import SMOSVC, rbf_kernel
from timesense.errors import InsufficientData, InvalidInput, Unsupported
from timesense.model import Dataset
from timesense.selection import rfecv
from tests.conftest import blobs, pinned_fixture, train_estimator, xor_data

# (kind, arguments of its estimator): {} is the estimator `train` builds;
# otherwise the estimator is built with those arguments
ALL_CASES = [(k, {}) for k in KINDS]
_ESTIMATORS = {"knn": KNN, "rf": RandomForest, "svc": SMOSVC}


def case_id(case):
    return case[0] + str(case[1])


def train_case(case, X, y):
    kind, args = case
    if not args:
        return train(ClassifierConfig(kind, seed=0), X, y)
    return train_estimator(kind, _ESTIMATORS[kind](**args), X, y)


class TestSeparableBlobs:
    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_perfect_training_accuracy(self, case):
        X, y = blobs()
        model = train_case(case, X, y)
        assert np.array_equal(predict(model, X), y)

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_generalizes_to_fresh_draw(self, case):
        X, y = blobs(seed=0)
        X2, y2 = blobs(seed=9)
        model = train_case(case, X, y)
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
    def test_nonlinear_models_succeed(self, case):
        X, y = xor_data()
        model = train_case(case, X, y)
        assert np.mean(predict(model, X) == y) >= 0.95


class TestTrainValidation:
    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(InsufficientData, match="both classes"):
            train(ClassifierConfig("lr"), X, np.zeros(10, dtype=int))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput, match="shapes disagree"):
            train(ClassifierConfig("lr"), np.ones((4, 2)), np.array([0, 1]))

    def test_nonfinite_rejected(self):
        X = np.ones((4, 2)); X[0, 0] = np.nan
        with pytest.raises(InvalidInput, match="must be finite"):
            train(ClassifierConfig("lr"), X, np.array([0, 1, 0, 1]))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput, match="unknown classifier kind"):
            ClassifierConfig("mlp")

    def test_predict_dimension_check(self):
        X, y = blobs(d=3)
        model = train(ClassifierConfig("lr"), X, y)
        with pytest.raises(InvalidInput, match="expected 3 features"):
            predict(model, np.ones((2, 5)))


class TestDeterminismAndInvariance:
    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_same_seed_same_scores(self, case):
        X, y = blobs(gap=2.0)
        s1 = decision_scores(train_case(case, X, y), X)
        s2 = decision_scores(train_case(case, X, y), X)
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_row_permutation_invariance(self, case):
        X, y = blobs(gap=2.0, seed=3)
        perm = np.random.default_rng(5).permutation(len(y))
        s1 = decision_scores(train_case(case, X, y), X)
        s2 = decision_scores(train_case(case, X[perm], y[perm]), X)
        assert np.allclose(s1, s2, atol=1e-10)


class TestScoresAndTies:
    def test_zero_score_predicts_slow(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = train_estimator("knn", KNN(k=2), X, y)
        # both neighbours vote once each -> tied score 0 -> slow
        scores = decision_scores(model, np.array([[0.5]]))
        assert scores[0] == 0.0
        assert predict(model, np.array([[0.5]]))[0] == 0

    def test_knn_memorizes_training_points_k1(self):
        X, y = blobs(gap=0.5, seed=2)
        model = train_estimator("knn", KNN(k=1), X, y)
        assert np.array_equal(predict(model, X), y)

    def test_scores_monotone_with_confidence(self):
        X, y = blobs(d=1, gap=4.0)
        model = train(ClassifierConfig("lr"), X, y)
        grid = np.linspace(-2, 6, 20).reshape(-1, 1)
        s = decision_scores(model, grid)
        assert np.all(np.diff(s) > 0)


class TestBlockedScores:
    """decision_scores(..., blocks=k) scores k stacked blocks in one call,
    each bit for bit as a call on that block alone."""

    @pytest.mark.parametrize("case", ALL_CASES + [("rf", {"min_samples_leaf": 3})],
                             ids=case_id)
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8])
    def test_each_block_as_its_own_call(self, case, rows):
        X, y = blobs(gap=1.0, seed=4)
        model = train_case(case, X, y)
        stack = np.random.default_rng(rows).normal(3.0, 2.0, size=(7 * rows, X.shape[1]))
        expected = np.concatenate([decision_scores(model, stack[i:i + rows])
                                   for i in range(0, len(stack), rows)])
        assert decision_scores(model, stack, blocks=7).tobytes() == expected.tobytes()

    def test_blocks_must_divide_the_rows(self):
        X, y = blobs()
        model = train(ClassifierConfig("lr"), X, y)
        with pytest.raises(ValueError, match="equal blocks"):
            decision_scores(model, X[:7], blocks=2)
        with pytest.raises(ValueError, match="equal blocks"):
            decision_scores(model, X[:4], blocks=0)


class TestLogisticRegression:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, 30)
        w = rng.normal(size=4)
        b = rng.normal()
        grad_w, grad_b = logistic_gradient(w, b, X, y, l2=0.7)
        eps = 1e-6
        for j in range(4):
            e = np.zeros(4); e[j] = eps
            num = (logistic_loss(w + e, b, X, y, l2=0.7)
                   - logistic_loss(w - e, b, X, y, l2=0.7)) / (2 * eps)
            assert grad_w[j] == pytest.approx(num, abs=1e-5)
        num_b = (logistic_loss(w, b + eps, X, y, l2=0.7)
                 - logistic_loss(w, b - eps, X, y, l2=0.7)) / (2 * eps)
        assert grad_b == pytest.approx(num_b, abs=1e-5)

    def test_l2_shrinks_weights(self):
        X, y = blobs(d=2, gap=3.0)
        w_small = train_estimator("lr", LogisticRegressionNewton(l2=0.01), X, y)
        w_large = train_estimator("lr", LogisticRegressionNewton(l2=100.0), X, y)
        n_small = np.linalg.norm(w_small.estimator.w)
        n_large = np.linalg.norm(w_large.estimator.w)
        assert n_large < n_small


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


class TestImportance:
    CAPABLE = [(k, {}) for k in ("dtc", "lr", "lda", "rf", "gb", "ab", "xgb")]
    INCAPABLE = [(k, {}) for k in ("svc", "knn", "gnb", "qda")]

    @pytest.mark.parametrize("case", CAPABLE, ids=case_id)
    def test_informative_feature_dominates(self, case):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(80, 5))
        y = (X[:, 2] > 0).astype(int)
        model = train_case(case, X, y)
        imp = importance(model)
        assert model.config.supports_importance()
        assert len(imp) == 5
        assert np.all(imp >= 0)
        assert np.argmax(imp) == 2

    @pytest.mark.parametrize("case", INCAPABLE, ids=case_id)
    def test_unsupported_importance_raises(self, case):
        X, y = blobs(d=3)
        model = train_case(case, X, y)
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

    def test_rf_seed_changes_model(self):
        X, y = blobs(gap=1.0, seed=4)
        s1 = decision_scores(train(ClassifierConfig("rf", seed=0), X, y), X)
        s2 = decision_scores(train(ClassifierConfig("rf", seed=1), X, y), X)
        assert not np.array_equal(s1, s2)

    def test_gb_improves_with_rounds(self):
        X, y = xor_data(seed=3)
        weak = train_estimator("gb", Booster(n_estimators=2, reg_lambda=0.0, min_child_weight=1e-6,
                                             second_order_splits=False), X, y)
        strong = train(ClassifierConfig("gb"), X, y)
        acc_weak = np.mean(predict(weak, X) == y)
        acc_strong = np.mean(predict(strong, X) == y)
        assert acc_strong >= acc_weak
        assert acc_strong >= 0.95


# sha256 of the float64 bytes of decision_scores (training rows, then a fresh
# draw) and of importance, recorded before the tree models shared one split
# search and one layout.
PINNED = {
    ("blobs", "dtc"): ("3cb7cb4892a664147cbb6dd9b031bf053f7d2264307bf277da4d103ad6f244b6",
                       "079f38ab3493499274d8abd2d1a7acf02025ce5b442cfa8c68cb154bad6afb59"),
    ("blobs", "rf"): ("dcc5ae7f5cf6f9d66169498cd752e0cfd19a925a12b676e19bd4ca7efed4d975",
                      "47a3a3a85d496fefe71df56587e41757166a420de27a3a47f8b8fe24d1dc4ce3"),
    ("blobs", "gb"): ("da5dfd812c8cab7822fe442781851e0574881e363bdb5388a937bda6a0a9acd1",
                      "371858a57577c5122b12f750ee4c521cf25296866cdb9eefb5df913ed46df035"),
    ("blobs", "ab"): ("6b5fd003281d267e295166390872eaf70582e983d8754b2df8e2947c40a50156",
                      "4f2ed8f028917feed18d5b6505bb6118e5d68cc71479885dc00eb2e82e6e8eff"),
    ("blobs", "xgb"): ("ab5dd91170907d9e20dad3932e8b2beb1bbc30a04aa589e26639a17c6f8d6584",
                       "2286d3da9dc90d0e777dd28159e8fb54f883808502f327ecc2d1916bc23b7e8e"),
    ("xor_data", "dtc"): ("eab300ba0509e59394ebd5c4805202eb9ff6a0570c112602bfc4b7486091d157",
                          "353acbbadf6f7e4e62789a961ec3e66a269108d8459558c2704b232b3857d389"),
    ("xor_data", "rf"): ("ba404dc77d46814697c14ad9943d3bba957e3170d05381b2ddf2f5b230783dc7",
                         "33521d21efa3d69a5fb60f73a17b5e416854fecb702031deaaafe67f431e0d91"),
    ("xor_data", "gb"): ("4deefab3f8b151c5cd0fbbb4e1f24155d71df7bd4b7b6840b9df1843e8e55fcc",
                         "f4e7a5d0decf82b7ea3339686498e6503ce7b3562e66bddcd96a3041afff2dee"),
    ("xor_data", "ab"): ("71f95c9c100e5c3820f5ce69e8f231d6397801e9bfd06d7fbd34fc2c590db957",
                         "b080b74920d77467df952857ff4767a5220caa6fa957752a26d9f22d63b9a7a3"),
    ("xor_data", "xgb"): ("3d00634f7720068c6527b37143c70410701c7940394021d6a1e58105ae48a80c",
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
                best = (-gain, j, thr, gain)
    return None if best is None else best[1:]


def loop_gradient_split(X, grad, hess, reg_lambda, min_child_weight, min_samples_leaf):
    def score(g, h):
        return g * g / (h + reg_lambda + 1e-12)

    n = len(grad)
    G, H = grad.sum(), hess.sum()
    parent = score(G, H)
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        cg = np.cumsum(grad[order])
        ch = np.cumsum(hess[order])
        for c in np.flatnonzero(xs[1:] > xs[:-1]):
            if c + 1 < min_samples_leaf or n - c - 1 < min_samples_leaf:
                continue
            hl, hr = ch[c], H - ch[c]
            if hl < min_child_weight or hr < min_child_weight:
                continue
            gain = 0.5 * (score(cg[c], hl) + score(G - cg[c], hr) - parent)
            thr = 0.5 * (xs[c] + xs[c + 1])
            key = (-gain, j, thr)
            if gain > 1e-12 and (best is None or key < best[:3]):
                best = (-gain, j, thr, gain)
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


def lane_split(col, thr, gain, b, features=None):
    """Lane b's best split as (feature, threshold, gain), or None."""
    if gain[b] == -np.inf:
        return None
    return (col[b] if features is None else features[col[b]]), thr[b], gain[b]


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
            col, _, thr, gain = tree.best_split(tree.sort_lanes(lane_x[:, :, feats], masks),
                                                stats, tree.gini_score(total_w, total_fast))
            for b, m in enumerate(masks):
                rows = (lane_x[b][m], lane_y[b][m], lane_w[b][m], feats)
                assert lane_split(col, thr, gain, b, feats) == loop_gini_split(*rows)
                assert oracle_gini_split(*rows) == loop_gini_split(*rows)

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
            for reg_lambda, mcw, msl in ((0.0, 1e-6, 1), (1.0, 1e-3, 1), (1.0, 0.6, 2)):
                col, _, thr, gain = tree.best_split(
                    tree.sort_lanes(lane_x, masks), stats,
                    tree.gradient_score(G, H, reg_lambda, mcw, msl))
                for b, m in enumerate(masks):
                    rows = (lane_x[b][m], lane_g[b][m], lane_h[b][m], reg_lambda, mcw, msl)
                    assert lane_split(col, thr, gain, b) == loop_gradient_split(*rows)
                    assert oracle_gradient_split(*rows) == loop_gradient_split(*rows)

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
            assert tree.stump_split(lanes, ypm, weights) == loop_stump_split(X, ypm, weights)

    def test_stump_tie_breaks(self):
        def stump(X, ypm, w):
            return tree.stump_split(tree.sort_lanes(X[None], np.ones((1, len(X)), bool)), ypm, w)

        # the cut below all values and both real cuts each err by 1
        X = np.array([[0.0], [1.0], [2.0]])
        ypm = np.array([1.0, -1.0, 1.0])
        w = np.ones(3)
        assert stump(X, ypm, w) == loop_stump_split(X, ypm, w) == (0, -1.0, 1)
        # both polarities err by 1: polarity -1 wins
        X, ypm, w = np.zeros((2, 1)), np.array([1.0, -1.0]), np.ones(2)
        assert stump(X, ypm, w) == loop_stump_split(X, ypm, w) == (0, -1.0, -1)


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


def oracle_gradient_split(X, grad, hess, reg_lambda, min_child_weight, min_samples_leaf=1):
    n = len(grad)
    G, H = grad.sum(), hess.sum()

    def objective(g, h):
        return g * g / (h + reg_lambda + 1e-12)

    parent = objective(G, H)

    def score(left, last, n_left):
        gl, hl = left[..., 0], left[..., 1]
        hr = H - hl
        gain = 0.5 * (objective(gl, hl) + objective(G - gl, hr) - parent)
        allowed = ((n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
                   & (hl >= min_child_weight) & (hr >= min_child_weight) & (gain > 1e-12))
        return np.where(allowed, gain, -np.inf)

    best = oracle_best_split(X, np.column_stack([grad, hess]), score)
    return None if best is None else best[:3]


def oracle_classification_tree(X, y, max_depth=None, min_samples_leaf=1, max_features=None,
                               feature_rng=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n, d = X.shape
    nodes = OracleNodes()
    importance = np.zeros(d)

    def grow(X, y, depth):
        fast = float(y.sum())
        node = nodes.add(value=(fast - (len(y) - fast)) / len(y))
        if (len(y) < 2
                or (max_depth is not None and depth >= max_depth)
                or len(np.unique(y)) < 2):
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
        if mask.sum() < min_samples_leaf or (~mask).sum() < min_samples_leaf:
            return node
        importance[j] += len(y) / n * gain
        nodes.feature[node] = j
        nodes.threshold[node] = thr
        nodes.left[node] = grow(X[mask], y[mask], depth + 1)
        nodes.right[node] = grow(X[~mask], y[~mask], depth + 1)
        return node

    grow(X, y, 0)
    s = importance.sum()
    return nodes.finalize(), importance / s if s > 0 else importance


def oracle_gradient_tree(X, grad, hess, leaf_grad, leaf_hess, max_depth, reg_lambda,
                         min_child_weight):
    nodes = OracleNodes()
    importance = np.zeros(X.shape[1])

    def grow(idx, depth):
        g, h = leaf_grad[idx].sum(), leaf_hess[idx].sum()
        node = nodes.add(value=-g / (h + reg_lambda + 1e-12))
        if depth >= max_depth or len(idx) < 2:
            return node
        best = oracle_gradient_split(X[idx], grad[idx], hess[idx], reg_lambda, min_child_weight)
        if best is None:
            return node
        j, thr, gain = best
        importance[j] += gain
        mask = X[idx, j] <= thr
        nodes.feature[node] = j
        nodes.threshold[node] = thr
        nodes.left[node] = grow(idx[mask], depth + 1)
        nodes.right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(len(grad)), 0)
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
    per tree and one walk per tree."""

    def __init__(self, kind, **params):
        self.kind, self.params = kind, params
        self.trees, self.importances, self.weights, self.offset = [], [], [], 0.0

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        getattr(self, "_fit_" + self.kind)(X, y, **self.params)
        return self

    def _fit_dtc(self, X, y, **params):
        nodes, imp = oracle_classification_tree(X, y, **params)
        self.trees, self.importances, self.weights = [nodes], [imp], [1.0]

    def _fit_rf(self, X, y, n_estimators=100, seed=0, **params):
        n, d = X.shape
        for t in range(n_estimators):
            tree_rng = np.random.default_rng([seed, t])
            idx = tree_rng.integers(0, n, size=n)
            if len(np.unique(y[idx])) < 2:
                idx = np.arange(n)
            nodes, imp = oracle_classification_tree(
                X[idx], y[idx], max_features=max(1, int(np.sqrt(d))), feature_rng=tree_rng,
                **params)
            self.trees.append(nodes)
            self.importances.append(imp)
            self.weights.append(1.0)

    def _fit_booster(self, X, y, n_estimators=100, learning_rate=0.1, max_depth=3,
                     reg_lambda=1.0, min_child_weight=1e-3, second_order_splits=True):
        y = np.asarray(y, dtype=float)
        if not second_order_splits:
            p0 = np.clip(y.mean(), 1e-12, 1 - 1e-12)
            self.offset = float(np.log(p0 / (1 - p0)))
        F = np.full(len(y), self.offset)
        for _ in range(n_estimators):
            p = sigmoid(F)
            grad = p - y
            hess = np.maximum(p * (1 - p), 1e-12)
            split_hess = hess if second_order_splits else np.ones(len(y))
            nodes, gain = oracle_gradient_tree(X, grad, split_hess, grad, hess, max_depth,
                                               reg_lambda, min_child_weight)
            F = F + learning_rate * nodes.predict(X)
            self.trees.append(nodes)
            self.importances.append(gain)
            self.weights.append(learning_rate)

    def _fit_ab(self, X, y, n_estimators=50):
        ypm = np.where(np.asarray(y) == 1, 1.0, -1.0)
        n, d = X.shape
        w = np.full(n, 1.0 / n)
        for _ in range(n_estimators):
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


GB_PARAMS = {"reg_lambda": 0.0, "min_child_weight": 1e-6, "second_order_splits": False}
# (label, estimator, oracle kind, parameters of both)
ORACLE_CASES = [
    ("dtc", DecisionTree, "dtc", {}),
    ("dtc-depth2", DecisionTree, "dtc", {"max_depth": 2}),
    ("dtc-leaf3", DecisionTree, "dtc", {"min_samples_leaf": 3}),
    ("rf", RandomForest, "rf", {"n_estimators": 30, "seed": 3}),
    ("rf-depth1", RandomForest, "rf", {"n_estimators": 30, "max_depth": 1}),
    ("rf-depth2", RandomForest, "rf", {"n_estimators": 30, "max_depth": 2, "seed": 1}),
    ("rf-leaf3", RandomForest, "rf", {"n_estimators": 30, "min_samples_leaf": 3}),
    ("gb", Booster, "booster", {"n_estimators": 30, **GB_PARAMS}),
    ("xgb", Booster, "booster", {"n_estimators": 30}),
    ("xgb-depth1", Booster, "booster", {"n_estimators": 20, "max_depth": 1}),
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

    @pytest.mark.parametrize("label,estimator,kind,params", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    @pytest.mark.parametrize("seed", range(20))
    def test_bitwise_equal(self, label, estimator, kind, params, seed):
        X, y, fresh = tree_case(seed)
        model = estimator(**params).fit(X, y)
        oracle = OracleTrees(kind, **params).fit(X, y)
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
        grow = ensemble.grow_boosting_tree

        def counted(*args):
            before = len(calls)
            out = grow(*args)
            grown.append((out[0], len(calls) - before))
            return out

        monkeypatch.setattr(ensemble, "grow_boosting_tree", counted)
        booster = Booster(max_depth=3).fit(X, y)
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
        blocks = rows[0] if len(rows) == 3 else 1
        decision_scores(model, np.zeros((int(np.prod(rows[:-1])), 4)), blocks=blocks)
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
# Solver oracles: the SMO and Newton-LR solvers as they were before they kept
# per-state values, evaluating every value afresh where it is used.
# ---------------------------------------------------------------------------

class OracleSMOSVC(SMOSVC):
    def fit(self, X, y, rng=None):
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

        passes = 0
        examine_all = True
        while passes < self.max_passes:
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
                    break
                examine_all = True
            else:
                examine_all = False
            passes += 1

        self.alpha_ = alpha
        self.b_ = b
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


class OracleLR(LogisticRegressionNewton):
    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        loss = logistic_loss(w, b, X, y, self.l2)
        for _ in range(self.max_iter):
            gw, gb = logistic_gradient(w, b, X, y, self.l2)
            if max(np.max(np.abs(gw)), abs(gb)) < self.tol:
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
            w, b, loss = w_new, b_new, new_loss
        self.w, self.b = w, b
        return self


# sha256 of decision_scores (training rows, then a fresh draw), recorded
# before the solvers kept per-state values.
PINNED_SOLVERS = {
    ("blobs", "svc"): "2ba63e330905899caea76c7713f72d43067236b75a5535a12e114d09add5aca6",
    ("blobs", "lr"): "6c9f2f54ac760fd502f61510787cbf37a60826a70b09c83476841b4380509f3f",
    ("xor_data", "svc"): "d940f7e38182254a106d514bb22b28f9b4a14367f4e7b110363fd4437bfff6d1",
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


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSolversMatchOracles:
    """The solvers keep per-state values yet return exactly what the
    oracles, which evaluate every value afresh, return."""

    @pytest.mark.parametrize("seed", range(120))
    def test_smo(self, seed):
        rng, X, y = solver_case(seed)
        C = (0.1, 1.0, 10.0)[seed % 3]
        new = SMOSVC(C=C).fit(X, y)
        old = OracleSMOSVC(C=C).fit(X, y)
        assert _same_bits(new.alpha_, old.alpha_)
        assert _same_bits(new.b_, old.b_)
        assert _same_bits(new.support_X_, old.support_X_)
        assert _same_bits(new.support_coef_, old.support_coef_)

    @pytest.mark.parametrize("seed", range(120))
    def test_lr(self, seed):
        rng, X, y = solver_case(seed)
        l2 = (0.01, 1.0, 100.0)[seed % 3]
        new = LogisticRegressionNewton(l2=l2).fit(X, y)
        old = OracleLR(l2=l2).fit(X, y)
        assert _same_bits(new.w, old.w)
        assert _same_bits(new.b, old.b)

    def test_smo_refit_equals_fresh_fit(self):
        _, X1, y1 = solver_case(7)
        _, X2, y2 = solver_case(8)
        svc = SMOSVC().fit(X1, y1).fit(X2, y2)
        fresh = SMOSVC().fit(X2, y2)
        assert _same_bits(svc.alpha_, fresh.alpha_)
        assert _same_bits(svc.b_, fresh.b_)
        # the oracle carries b over from its first fit, which shows here
        assert OracleSMOSVC().fit(X1, y1).fit(X2, y2).b_ != fresh.b_

    @pytest.mark.parametrize("fixture,kind", sorted(PINNED_SOLVERS))
    def test_solver_models_reproduce_pinned_outputs(self, fixture, kind):
        X, y, rows = pinned_fixture(fixture)
        model = train(ClassifierConfig(kind, seed=0), X, y)
        assert _digest(decision_scores(model, rows)) == PINNED_SOLVERS[fixture, kind]


class TestSolverConvergence:
    def test_smo_reports_the_sweep_cap(self):
        X, y = blobs(gap=2.0)
        capped = SMOSVC(max_passes=1).fit(X, y)
        assert (capped.n_iter_, capped.converged_) == (1, False)
        full = SMOSVC().fit(X, y)
        assert full.converged_ and 1 < full.n_iter_ < full.max_passes

    def test_lr_reports_the_iteration_cap(self):
        X, y = blobs(gap=2.0)
        capped = LogisticRegressionNewton(max_iter=1).fit(X, y)
        assert (capped.n_iter_, capped.converged_) == (1, False)
        full = LogisticRegressionNewton().fit(X, y)
        assert full.converged_ and 1 < full.n_iter_ < full.max_iter
