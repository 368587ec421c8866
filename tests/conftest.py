import numpy as np
import pytest

from timesense import ingest, pipeline
from timesense.model import FEATURE_NAMES, Dataset


@pytest.fixture(scope="session")
def strong_sessions():
    """Full 12x4 corpus with strong class margins (the default generator)."""
    return ingest.synth_dataset(ingest.SynthConfig(seed=7))


@pytest.fixture(scope="session")
def strong_dataset(strong_sessions):
    return pipeline.assemble(strong_sessions)


@pytest.fixture(scope="session")
def zero_margin_sessions():
    """Full 12x4 corpus whose classes share one set of parameters."""
    return ingest.synth_dataset(ingest.zero_margin_config(seed=7))


@pytest.fixture(scope="session")
def zero_margin_dataset(zero_margin_sessions):
    return pipeline.assemble(zero_margin_sessions)


@pytest.fixture(scope="session")
def small_sessions():
    """3-participant corpus for cheaper end-to-end tests."""
    return ingest.synth_dataset(ingest.SynthConfig(participants=3, seed=11))


@pytest.fixture(scope="session")
def small_dataset(small_sessions):
    return pipeline.assemble(small_sessions)


def planted_dataset(n_informative=5, n_rows=48, n_participants=12, seed=0,
                    signal=2.0):
    """24-feature dataset where only the first n_informative features carry
    class signal; the rest are pure noise."""
    rng = np.random.default_rng(seed)
    y = np.tile([0, 1], n_rows // 2)
    X = rng.normal(0.0, 1.0, size=(n_rows, len(FEATURE_NAMES)))
    X[:, :n_informative] += signal * y[:, None]
    pids = np.repeat(np.arange(1, n_participants + 1), n_rows // n_participants)
    return Dataset(X, y, pids)


def first_features(dataset, k):
    """``dataset`` cut to its first ``k`` feature columns."""
    return Dataset(dataset.X[:, :k], dataset.y, dataset.participant_ids,
                   dataset.feature_names[:k])


@pytest.fixture
def planted():
    return planted_dataset()


def blobs(n_per=20, d=4, gap=6.0, seed=0):
    """Two well-separated Gaussian clusters."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per, d))
    b = rng.normal(gap, 1.0, (n_per, d))
    X = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def mixed_repeats(X, y):
    """Each row three times, the last copy with the other label: a leaf of
    equal rows then holds both classes, and a tree grown to pure leaves keeps
    leaf values, such as 1/3, that are not dyadic."""
    return np.repeat(X, 3, axis=0), np.stack([y, y, 1 - y], axis=1).ravel()


def xor_data(n=120, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    X += rng.normal(0, 0.02, X.shape)
    return X, y


def pinned_fixture(name):
    """Training rows, labels, and the training rows followed by a fresh draw."""
    if name == "blobs":
        (X, y), probe = blobs(gap=2.0), blobs(gap=2.0, seed=9)[0]
    else:
        (X, y), probe = xor_data(), xor_data(seed=3)[0]
    return X, y, np.vstack([X, probe])
