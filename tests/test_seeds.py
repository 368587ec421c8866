"""Every seeded entry point applies one seed rule: a non-negative integer,
Python or numpy, not a bool. Anything else raises InvalidInput naming the
seed, before any fold, fit or draw."""

import numpy as np
import pytest

from timesense import evaluate, explain, ingest, selection
from timesense.classifiers import ClassifierConfig, train
from timesense.errors import InvalidInput
from timesense.model import Dataset

BAD_SEEDS = [
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    ("1", "seed must be an integer, got '1'"),
    (None, "seed must be an integer, got None"),
    (-1, "seed -1 must be >= 0"),
    (np.int64(-3), "seed -3 must be >= 0"),
]


def _dataset():
    rng = np.random.default_rng(0)
    y = np.tile([0, 1], 6)
    X = rng.normal(size=(12, 3)) + y[:, None]
    return Dataset(X, y, np.repeat([1, 2, 3], 4), ("a", "b", "c"))


def _ran_past_the_check(*args, **kwargs):
    raise AssertionError("ran past the seed check")


# each seeded entry point, called as f(seed, dataset, trained lr model)
ENTRY_POINTS = {
    "ClassifierConfig": lambda seed, ds, model: ClassifierConfig("rf", seed=seed),
    "synth_dataset": lambda seed, ds, model: ingest.synth_dataset(ingest.SynthConfig(seed=seed)),
    "stratified_kfold": lambda seed, ds, model: selection.stratified_kfold(ds.y, seed),
    "sfs": lambda seed, ds, model: selection.sfs(ds, ClassifierConfig("lr"), 1, seed=seed),
    "rfecv": lambda seed, ds, model: selection.rfecv(ds, ClassifierConfig("lr"), seed=seed),
    "losocv": lambda seed, ds, model: evaluate.losocv(ds, ClassifierConfig("lr"), seed=seed),
    "kernel_shap": lambda seed, ds, model: explain.kernel_shap(model, ds.X, ds.X[0], 8,
                                                               seed=seed),
    "mean_abs_shap": lambda seed, ds, model: explain.mean_abs_shap(model, ds, 8, seed=seed),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("seed,message", BAD_SEEDS, ids=[repr(s) for s, _ in BAD_SEEDS])
def test_a_bad_seed_is_refused_first(monkeypatch, entry, seed, message):
    ds = _dataset()
    model = train(ClassifierConfig("lr"), ds.X, ds.y)
    # the work after each entry point's seed check
    for module, name in ((evaluate, "fit_scaler"), (evaluate, "train_many"),
                         (selection, "trained_lanes"), (explain, "decision_scores"),
                         (ingest, "_synth_session")):
        monkeypatch.setattr(module, name, _ran_past_the_check)
    with pytest.raises(InvalidInput) as raised:
        ENTRY_POINTS[entry](seed, ds, model)
    assert str(raised.value) == message


def test_numpy_integer_seeds_are_integers():
    y = _dataset().y
    assert ClassifierConfig("rf", seed=np.int64(4)).seed == 4
    ingest.SynthConfig(seed=np.uint8(4)).validate()
    for got, want in zip(selection.stratified_kfold(y, np.int32(4)),
                         selection.stratified_kfold(y, 4)):
        assert np.array_equal(got, want)
