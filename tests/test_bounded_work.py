"""Huge arguments are refused before the work they ask for begins.

Each case runs in a child process under a wall-clock timeout, its address
space capped by ``RLIMIT_AS`` (set in the child only, between fork and
exec). A runaway allocation then fails the case with a ``MemoryError``, and
a runaway loop with a timeout, rather than taking the host's memory or
time. Each case must exit 2 with one ``error:`` line and no traceback.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from timesense import dsp, ingest, pipeline
from timesense.explain import MAX_COALITION_ENTRIES, MAX_SAMPLES
from timesense.model import Dataset

ROOT = Path(__file__).resolve().parent.parent
# Python with numpy and scipy maps about 0.4 GiB of address space; this
# leaves room for the small work a refusal does, not for the work refused
ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 60

# mean_abs_shap at 5,002 coalitions of 5,000 features, as the library call
# it is; an InvalidInput becomes the command line's error line and exit code
MEAN_ABS_SHAP = """
import sys
import numpy as np
from timesense.classifiers import ClassifierConfig, train
from timesense.errors import InvalidInput
from timesense.explain import mean_abs_shap
from timesense.model import Dataset

d = 5000
X = np.random.default_rng(0).normal(size=(6, d))
y = [0, 1, 0, 1, 0, 1]
dataset = Dataset(X, y, [1, 1, 2, 2, 3, 3], tuple(f"f{j}" for j in range(d)))
model = train(ClassifierConfig("knn"), X, y)
try:
    mean_abs_shap(model, dataset, n_samples=5002)
except InvalidInput as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)
"""


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_capped(args, cwd):
    """``python args`` against ``src/`` in a capped child."""
    path = os.environ.get("PYTHONPATH")
    # one BLAS or OpenMP thread, whichever library numpy is built on, so that
    # the address space the child needs does not grow with the host's cores
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + ([path] if path else [])))
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env, preexec_fn=_capped,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.fixture
def features_csv(tmp_path):
    """A 24-feature dataset of 12 rows as the features CSV ``explain`` reads."""
    rng = np.random.default_rng(0)
    y = np.tile([0, 1], 6)
    path = tmp_path / "features.csv"
    pipeline.dataset_to_csv(Dataset(rng.normal(size=(12, 24)) + y[:, None], y,
                                    np.repeat([1, 2, 3], 4)), path)
    return path


def _explain(tmp_path, features_csv):
    return ["-m", "timesense.cli", "explain", "--features", str(features_csv),
            "--classifier", "lr", "--n-samples", "16777214", "--out", str(tmp_path / "r.csv")]


def _synth(tmp_path, features_csv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"participants": 10 ** 9}))
    return ["-m", "timesense.cli", "synth", "--config", str(config),
            "--out", str(tmp_path / "corpus")]


def _mean_abs_shap(tmp_path, features_csv):
    return ["-c", MEAN_ABS_SHAP]


def _extract(tmp_path, features_csv):
    """A corpus whose first session records EDA as 3 samples at 1e-9 Hz:
    resampling them to 100 Hz asks for 3e11 samples."""
    sessions = ingest.synth_dataset(ingest.SynthConfig(participants=3, seed=11))
    manifest = Path(ingest.write_corpus(sessions, tmp_path / "recordings"))
    doc = json.loads(manifest.read_text())
    eda = doc["sessions"][0]["channels"]["eda"]
    eda["sampling_rate_hz"] = 1e-9
    (manifest.parent / eda["path"]).write_text(
        "timestamp_s,value\n0.0,1.0\n1000000000.0,1.1\n2000000000.0,1.2\n")
    manifest.write_text(json.dumps(doc))
    return ["-m", "timesense.cli", "extract", "--manifest", str(manifest),
            "--out", str(tmp_path / "r.csv")]


CASES = [
    ("explain-n-samples", _explain, f"n_samples 16777214 exceeds the limit of {MAX_SAMPLES}"),
    ("synth-participants", _synth, "a corpus records at most"),
    ("mean_abs_shap-budget", _mean_abs_shap,
     f"n_samples 5002 x 5000 features exceeds the limit of {MAX_COALITION_ENTRIES}"),
    ("extract-eda-rate", _extract,
     f"target_rate_hz 100.0 for 3 samples at 1e-09 Hz asks for 3e+11 samples, "
     f"over the limit of {dsp.MAX_SAMPLES}"),
]


@pytest.mark.parametrize("args,message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_a_huge_argument_is_refused_at_once(tmp_path, features_csv, args, message):
    result = run_capped(args(tmp_path, features_csv), tmp_path)
    lines = result.stderr.splitlines()
    assert result.returncode == 2, result.stderr
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines
    # nothing written
    assert not {"r.csv", "corpus"} & {p.name for p in tmp_path.iterdir()}


def test_the_cap_stops_a_runaway_allocation(tmp_path):
    """The harness itself: an allocation beyond the cap fails in the child."""
    result = run_capped(["-c", f"bytearray({2 * ADDRESS_SPACE})"], tmp_path)
    assert result.returncode == 1 and "MemoryError" in result.stderr
