"""Per-layer spans recorded from outside the package.

``Tracer.installed()`` wraps the public functions of each layer for the
duration of a ``with`` block. A wrapper replaces every binding of the
function in the package, not only the one in its defining module, because
``evaluate``, ``selection``, ``explain`` and ``cli`` import ``train``,
``predict``, ``decision_scores`` and friends by name. Leaving the block puts
every original back.

Each span records its name, start, end, parent span and a few attributes
read from the call's arguments or result. ``layer_metrics`` turns the spans
of one pass into the per-layer metrics.
"""

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

KINDS = ("svc", "dtc", "knn", "lr", "gnb", "lda", "qda", "rf", "gb", "ab", "xgb")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _train_attrs(args, kwargs, model):
    attrs = {"kind": model.kind, "rows": len(_arg(args, kwargs, 2, "y"))}
    if model.kind == "svc":
        attrs["support_vectors"] = len(model.estimator.support_coef_)
    return attrs


def _rows_attrs(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "X"))}


def _beats_attrs(args, kwargs, beats):
    return {"beats": len(beats.peak_times_s),
            "rr_detected": len(beats.peak_times_s) - 1,
            "rr_kept": len(beats.rr_ms)}


# (module, function, span name, attribute reader). The reader runs after the
# span has ended, so its cost falls outside the span.
TARGETS = (
    ("timesense.ingest", "synth_dataset", "ingest.synth_dataset", None),
    ("timesense.ingest", "write_corpus", "ingest.write_corpus",
     lambda a, k, r: {"bytes": _tree_bytes(_arg(a, k, 1, "out_dir"))}),
    ("timesense.ingest", "load_session", "ingest.load_session", None),
    ("timesense.dsp", "bandpass", "dsp.bandpass", None),
    ("timesense.dsp", "lowpass", "dsp.lowpass", None),
    ("timesense.dsp", "resample_fourier", "dsp.resample_fourier", None),
    ("timesense.dsp", "welch_psd", "dsp.welch_psd", None),
    ("scipy.signal", "butter", "dsp.butter", None),
    ("timesense.features", "extract_all", "features.extract_all", None),
    ("timesense.features", "detect_ppg_peaks", "features.detect_ppg_peaks", _beats_attrs),
    ("timesense.features", "eda_features", "features.eda_features",
     lambda a, k, r: {"scr": r["scr_peaks_n"]}),
    ("timesense.features", "temp_features", "features.temp_features", None),
    ("timesense.pipeline", "assemble", "pipeline.assemble", None),
    ("timesense.pipeline", "fit_scaler", "pipeline.fit_scaler", None),
    ("timesense.pipeline", "apply_scaler", "pipeline.apply_scaler", None),
    ("timesense.classifiers.base", "train", "classifiers.train", _train_attrs),
    ("timesense.classifiers.base", "predict", "classifiers.predict", _rows_attrs),
    ("timesense.classifiers.base", "decision_scores", "classifiers.decision_scores", _rows_attrs),
    ("timesense.classifiers.base", "importance", "classifiers.importance", None),
    ("timesense.selection", "sfs", "selection.sfs", None),
    ("timesense.selection", "rfecv", "selection.rfecv", None),
    ("timesense.selection", "cv_accuracy", "selection.cv_accuracy", None),
    ("timesense.evaluate", "losocv", "evaluate.losocv", None),
    ("timesense.explain", "mean_abs_shap", "explain.mean_abs_shap", None),
    ("timesense.explain", "kernel_shap", "explain.kernel_shap", None),
    ("timesense.cli", "main", "cli.main", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}


class Tracer:
    """Collects spans from wrapped layer functions while installed.

    ``clock`` gives the span times; the benchmark passes one that leaves out
    the time its speed sampler takes.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def reset(self):
        self.spans = []

    def _wrap(self, fn, name, read_attrs):
        stack, clock = self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if read_attrs is not None:
                span.attrs = read_attrs(args, kwargs, result)
            return result

        wrapper.traced_as = name
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patched = []
        try:
            for module_name, attr, name, read_attrs in TARGETS:
                home = importlib.import_module(module_name)
                original = getattr(home, attr)
                wrapper = self._wrap(original, name, read_attrs)
                for module in _binding_modules(home):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)


def _binding_modules(home):
    return [home] + [m for n, m in list(sys.modules.items())
                     if m is not home and (n == "timesense" or n.startswith("timesense."))]


def wrapped_bindings():
    """Names in the package or scipy.signal still bound to a tracing wrapper."""
    left = set()
    for module_name in {t[0] for t in TARGETS}:
        for module in _binding_modules(importlib.import_module(module_name)):
            for key, value in vars(module).items():
                if hasattr(value, "traced_as"):
                    left.add(f"{module.__name__}.{key}")
    return sorted(left)


def _layer_units():
    """Unit of every per-layer metric, in the order they are reported."""
    units = {}
    units["ingest.write_corpus.s"] = "s"
    units["ingest.write_corpus.bytes"] = "bytes"
    units["ingest.load_session.calls"] = "count"
    units["ingest.load_session.s"] = "s"
    units["ingest.synth_dataset.s"] = "s"
    for f in ("bandpass", "lowpass", "resample_fourier", "welch_psd"):
        units[f"dsp.{f}.calls"] = "count"
        units[f"dsp.{f}.s"] = "s"
    units["dsp.filter_designs"] = "count"
    units["features.extract_all.calls"] = "count"
    units["features.extract_all.self_s"] = "s"
    for f in ("detect_ppg_peaks", "eda_features", "temp_features"):
        units[f"features.{f}.s"] = "s"
    units["features.beats_detected"] = "count"
    units["features.rr_kept_ratio"] = "fraction"
    units["features.scr_count"] = "count"
    units["pipeline.assemble.s"] = "s"
    units["pipeline.fit_scaler.calls"] = "count"
    units["pipeline.apply_scaler.calls"] = "count"
    for kind in KINDS:
        units[f"classifiers.train.{kind}.calls"] = "count"
        units[f"classifiers.train.{kind}.s"] = "s"
    units["classifiers.train.rows"] = "count"
    for f in ("decision_scores", "predict"):
        units[f"classifiers.{f}.calls"] = "count"
        units[f"classifiers.{f}.rows"] = "count"
        units[f"classifiers.{f}.s"] = "s"
    units["classifiers.importance.calls"] = "count"
    units["classifiers.svc.sv_frac"] = "fraction"
    for f in ("sfs", "rfecv", "cv_accuracy"):
        units[f"selection.{f}.calls"] = "count"
        units[f"selection.{f}.self_s"] = "s"
    units["evaluate.losocv.calls"] = "count"
    units["evaluate.losocv.self_s"] = "s"
    for f in ("mean_abs_shap", "kernel_shap"):
        units[f"explain.{f}.calls"] = "count"
        units[f"explain.{f}.self_s"] = "s"
    units["explain.coalitions"] = "count"
    units["explain.rows_scored"] = "count"
    units["cli.main.calls"] = "count"
    units["cli.main.self_s"] = "s"
    return units


LAYER_UNITS = _layer_units()


def _ratio(num, den):
    return num / den if den else 0.0


def _under(span, name):
    span = span.parent
    while span is not None:
        if span.name == name:
            return True
        span = span.parent
    return False


def _key(span):
    """Aggregation key of a span; train spans are split by classifier kind."""
    if span.name == "classifiers.train":
        return f"classifiers.train.{span.attrs['kind']}"
    return span.name


def layer_metrics(spans):
    """Per-layer metrics of one pass from its spans; 0 where a layer is not reached.

    Self time is a span's duration minus that of its child spans, which
    cover disjoint parts of it because the package runs on one thread.
    """
    calls, total, self_s, sums = {}, {}, {}, {}
    for span in spans:
        name, dur = _key(span), span.end - span.start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur
        if span.parent is not None:
            parent = _key(span.parent)
            self_s[parent] = self_s.get(parent, 0.0) - dur
        for key, value in span.attrs.items():
            if key != "kind":
                sums[(span.name, key)] = sums.get((span.name, key), 0) + value

    out = {}
    for metric in LAYER_UNITS:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(base, 0)
        elif stat == "s":
            out[metric] = total.get(base, 0.0)
        elif stat == "self_s":
            out[metric] = self_s.get(base, 0.0)
        elif stat == "rows" and base != "classifiers.train":
            out[metric] = sums.get((base, "rows"), 0)
    out["ingest.write_corpus.bytes"] = sums.get(("ingest.write_corpus", "bytes"), 0)
    out["dsp.filter_designs"] = calls.get("dsp.butter", 0)
    out["features.beats_detected"] = sums.get(("features.detect_ppg_peaks", "beats"), 0)
    out["features.rr_kept_ratio"] = _ratio(sums.get(("features.detect_ppg_peaks", "rr_kept"), 0),
                                           sums.get(("features.detect_ppg_peaks", "rr_detected"), 0))
    out["features.scr_count"] = sums.get(("features.eda_features", "scr"), 0.0)
    out["classifiers.train.rows"] = sums.get(("classifiers.train", "rows"), 0)
    svc_rows = sum(s.attrs["rows"] for s in spans
                   if s.name == "classifiers.train" and s.attrs["kind"] == "svc")
    out["classifiers.svc.sv_frac"] = _ratio(
        sums.get(("classifiers.train", "support_vectors"), 0), svc_rows)
    coalitions = [s for s in spans
                  if s.name == "classifiers.decision_scores" and _under(s, "explain.kernel_shap")]
    out["explain.coalitions"] = len(coalitions)
    out["explain.rows_scored"] = sum(s.attrs["rows"] for s in coalitions)
    return out
