"""The benchmark's four workloads.

Each workload has three steps:

- ``setup(seed, sizes, workdir)`` builds the inputs from the seed; the
  benchmark times it as set-up, outside the measured passes;
- ``operations(inputs, pass_dir)`` returns one measured pass as an ordered
  ``{operation: callable}``; the benchmark times each call;
- ``check(inputs, outputs)`` takes ``{operation: return value}`` and returns
  ``{operation: (digest, problems)}``: the sha256 of each operation's output
  and the invariants it broke. It runs outside the timed pass.

Every call into the package goes through a module attribute looked up at
call time, so the tracer's wrappers see it.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os

import numpy as np

from timesense import cli, evaluate, explain, ingest, pipeline, selection
from timesense import classifiers
from timesense.model import FEATURE_NAMES, Dataset


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _features_dataset(seed, sizes):
    """The assembled dataset of a seeded corpus: "strong" class margins (the
    generator's default) or "zero_margin" (slow and fast sessions alike)."""
    config = {"strong": ingest.SynthConfig, "zero_margin": ingest.zero_margin_config}[
        sizes["corpus"]](seed=seed)
    sessions = ingest.synth_dataset(dataclasses.replace(config, participants=sizes["participants"]))
    return pipeline.assemble(sessions)


def sub_seed(seed, k):
    """Seed of a workload's k-th extra corpus."""
    return seed + 1000 * (k + 1)


def _corpora(seed, sizes, count):
    """``count`` assembled datasets of the same size: the seed's own, then
    those of ``sub_seed``. Averaging over several corpora keeps the work of a
    pass from swinging with the data of a single one."""
    return [_features_dataset(seed, sizes)] + [_features_dataset(sub_seed(seed, k), sizes)
                                               for k in range(count - 1)]


def _scaled(dataset):
    scaler = pipeline.fit_scaler(dataset.X, "minmax")
    return Dataset(pipeline.apply_scaler(scaler, dataset.X), dataset.y,
                   dataset.participant_ids, dataset.feature_names)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def _selection_problems(selected, n_selected=None):
    problems = []
    if not selected or len(set(selected)) != len(selected):
        problems.append("selected features empty or repeated")
    if not set(selected) <= set(FEATURE_NAMES):
        problems.append("selected features outside the 24 biomarkers")
    if n_selected is not None and len(selected) != n_selected:
        problems.append(f"{len(selected)} features selected, expected {n_selected}")
    return problems


def report_problems(report, dataset, n_selected=None):
    """Invariants of one LOSOCV report on ``dataset``."""
    problems = []
    folds = report.per_fold
    pids = [int(p) for p in dataset.participants()]
    if [f.held_out_participant for f in folds] != pids:
        problems.append("folds do not hold out each participant once, in order")
        return problems
    for f in folds:
        mask = dataset.participant_ids == f.held_out_participant
        if list(f.actual) != [int(v) for v in dataset.y[mask]]:
            problems.append(f"fold {f.held_out_participant}: actual labels differ from the data")
        if len(f.predictions) != len(f.actual) or not set(f.predictions) <= {0, 1}:
            problems.append(f"fold {f.held_out_participant}: malformed predictions")
        elif not (math.isfinite(f.accuracy)
                  and f.accuracy == float(np.mean(np.equal(f.predictions, f.actual)))):
            problems.append(f"fold {f.held_out_participant}: accuracy disagrees with predictions")
        problems += [f"fold {f.held_out_participant}: {p}"
                     for p in _selection_problems(f.selected_feature_names, n_selected)]
    mean = float(np.mean([f.accuracy for f in folds]))
    if not (math.isfinite(report.mean_accuracy) and abs(report.mean_accuracy - mean) <= 1e-12):
        problems.append("mean_accuracy is not the mean of the fold accuracies")
    return problems


def ranking_problems(ranking, names=FEATURE_NAMES):
    """A ranking holds each feature once, ranks 1..d, finite non-increasing values."""
    problems = []
    if sorted(n for n, _, _ in ranking) != sorted(names):
        problems.append("ranking does not hold exactly the expected features")
    if [r for _, _, r in ranking] != list(range(1, len(names) + 1)):
        problems.append("ranks are not 1..d")
    values = [v for _, v, _ in ranking]
    if not all(math.isfinite(v) and v >= 0 for v in values):
        problems.append("mean |shap| values not finite and non-negative")
    elif any(a < b for a, b in zip(values, values[1:])):
        problems.append("ranking not in descending order")
    return problems


def features_csv_problems(text, participants, sessions_per_participant):
    """Shape, finiteness and label checks of a features CSV, parsed independently."""
    lines = text.splitlines()
    if not lines or lines[0] != "# schema_version=1":
        return ["missing schema line"]
    if lines[1:2] != [",".join(FEATURE_NAMES) + ",label,participant_id"]:
        return ["header is not the 24 features plus label and participant_id"]
    rows = [ln.split(",") for ln in lines[2:]]
    problems = []
    if len(rows) != participants * sessions_per_participant:
        problems.append(f"{len(rows)} rows, expected {participants * sessions_per_participant}")
    if any(len(r) != len(FEATURE_NAMES) + 2 for r in rows):
        return problems + ["a row has the wrong number of columns"]
    try:
        values = np.array([[float(c) for c in r[:-2]] for r in rows])
        pids = [int(r[-1]) for r in rows]
    except ValueError:
        return problems + ["non-numeric cell"]
    if not np.all(np.isfinite(values)):
        problems.append("non-finite feature value")
    if not {r[-2] for r in rows} <= {"fast", "slow"}:
        problems.append("label other than fast/slow")
    expected = [p for p in range(1, participants + 1) for _ in range(sessions_per_participant)]
    if pids != expected:
        problems.append("participant ids not in session order")
    return problems


# ---------------------------------------------------------------------------
# extract: synth -> extract through the CLI
# ---------------------------------------------------------------------------

def _cli(argv, output):
    """Run one CLI command in-process; returns (exit code, stderr, output path)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue().strip(), output


class Extract:
    def setup(self, seed, sizes, workdir):
        config = os.path.join(workdir, "synth_config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"participants": sizes["participants"],
                       "sessions_per_participant": sizes["sessions_per_participant"]}, fh)
        return {"seed": seed, "sizes": sizes, "config": config}

    def operations(self, inputs, pass_dir):
        corpus = os.path.join(pass_dir, "corpus")
        manifest = os.path.join(corpus, "manifest.json")
        features = os.path.join(pass_dir, "features.csv")
        return {
            "synth": lambda: _cli(["synth", "--config", inputs["config"], "--out", corpus,
                                   "--seed", str(inputs["seed"])], manifest),
            "extract": lambda: _cli(["extract", "--manifest", manifest, "--out", features],
                                    features),
        }

    def check(self, inputs, outputs):
        sizes = inputs["sizes"]
        result = {}
        for op, (code, err, path) in outputs.items():
            if code != 0:
                result[op] = (None, [f"timesense {op} exited {code}: {err}"])
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            if op == "synth":
                n = len(json.loads(data)["sessions"])
                want = sizes["participants"] * sizes["sessions_per_participant"]
                problems = [] if n == want else [f"manifest lists {n} sessions, expected {want}"]
            else:
                problems = features_csv_problems(data.decode("utf-8"), sizes["participants"],
                                                 sizes["sessions_per_participant"])
            result[op] = (hashlib.sha256(data).hexdigest(), problems)
        return result


# ---------------------------------------------------------------------------
# losocv: every classifier kind, no selection
# ---------------------------------------------------------------------------

class Losocv:
    """Tree training takes about 5% more or less time from one corpus to the
    next, so every kind runs on ``corpora`` corpora."""

    def setup(self, seed, sizes, workdir):
        return {"datasets": _corpora(seed, sizes, sizes["corpora"])}

    def operations(self, inputs, pass_dir):
        return {f"losocv.{kind}.{k}": functools.partial(evaluate.losocv, ds,
                                                        classifiers.ClassifierConfig(kind),
                                                        "minmax", selection=None, seed=0)
                for k, ds in enumerate(inputs["datasets"]) for kind in evaluate.MATRIX_KINDS}

    def check(self, inputs, outputs):
        result = {}
        for op, report in outputs.items():
            ds = inputs["datasets"][int(op.rpartition(".")[2])]
            result[op] = (sha256_json(evaluate.report_to_jsonable(report)),
                          report_problems(report, ds, len(FEATURE_NAMES)))
        return result


# ---------------------------------------------------------------------------
# select: LOSOCV with SFS and RFECV, and a direct SFS with the RBF SVC
# ---------------------------------------------------------------------------

class Select:
    """The SMO solver's work moves by 15-20% from one corpus to the next, so
    the direct SVC SFS runs on ``svc_sfs_corpora`` small corpora of
    ``svc_sfs_participants`` participants: many small ones average that out
    better than a few large ones in the same time."""

    def setup(self, seed, sizes, workdir):
        svc_sizes = dict(sizes, participants=sizes["svc_sfs_participants"])
        svc = _corpora(seed, svc_sizes, sizes["svc_sfs_corpora"])
        return {"dataset": _features_dataset(seed, sizes), "svc": [_scaled(d) for d in svc],
                "sizes": sizes}

    def operations(self, inputs, pass_dir):
        ds, sizes = inputs["dataset"], inputs["sizes"]
        lr, lda = classifiers.ClassifierConfig("lr"), classifiers.ClassifierConfig("lda")
        sfs_spec = ("sfs", {"n_features": sizes["losocv_sfs_n_features"]})
        loso = functools.partial(evaluate.losocv, ds, scaler_method="minmax", seed=0)
        ops = {
            "losocv_sfs.lr": lambda: loso(lr, selection=sfs_spec),
            "losocv_rfecv.lr": lambda: loso(lr, selection=("rfecv", {})),
            "losocv_rfecv.lda": lambda: loso(lda, selection=("rfecv", {})),
        }
        for k, scaled in enumerate(inputs["svc"]):
            ops[f"sfs.svc.{k}"] = functools.partial(
                lambda d: selection.sfs(d, classifiers.ClassifierConfig("svc"),
                                        n_features=sizes["svc_sfs_n_features"], seed=0), scaled)
        return ops

    def check(self, inputs, outputs):
        ds, sizes = inputs["dataset"], inputs["sizes"]
        result = {}
        for op, out in outputs.items():
            if op.startswith("sfs.svc."):
                n = sizes["svc_sfs_n_features"]
                problems = _selection_problems(out.selected, n)
                scores = [s for _, s in out.trace]
                if len(out.trace) != n or not all(0.0 <= s <= 1.0 for s in scores):
                    problems.append("SFS trace is not one finite score per step")
                result[op] = (sha256_json(out.to_jsonable()), problems)
            else:
                n = sizes["losocv_sfs_n_features"] if op.startswith("losocv_sfs") else None
                result[op] = (sha256_json(evaluate.report_to_jsonable(out)),
                              report_problems(out, ds, n))
        return result


# ---------------------------------------------------------------------------
# explain: mean |SHAP| rankings, trained and explained as `timesense explain` does
# ---------------------------------------------------------------------------

class Explain:
    def setup(self, seed, sizes, workdir):
        return {"dataset": _features_dataset(seed, sizes), "sizes": sizes}

    def operations(self, inputs, pass_dir):
        ds, sizes = inputs["dataset"], inputs["sizes"]

        def rank(kind):
            model = classifiers.train(classifiers.ClassifierConfig(kind), ds.X, ds.y)
            return explain.mean_abs_shap(model, ds, n_samples=sizes[f"{kind}_n_samples"], seed=0)

        return {f"shap.{kind}": functools.partial(rank, kind) for kind in ("lr", "rf")}

    def check(self, inputs, outputs):
        return {op: (sha256_json([list(entry) for entry in ranking]), ranking_problems(ranking))
                for op, ranking in outputs.items()}


WORKLOADS = {"extract": Extract(), "losocv": Losocv(), "select": Select(), "explain": Explain()}
