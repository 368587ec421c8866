"""Command-line surface: synth, extract, evaluate, explain.

Exit codes: 0 success, 1 IO/environment error, 2 validation/domain error.
"""

import argparse
import json
import sys

from . import ingest, pipeline
from .classifiers import ClassifierConfig, train
from .errors import TimesenseError, UnsupportedClassifier
from .evaluate import (
    MATRIX_KINDS,
    SELECTION_MODES,
    losocv,
    report_matrix,
    report_to_jsonable,
    selection_spec,
    write_report_json,
)
from .explain import mean_abs_shap
from .fileio import write_atomic
from .ingest import SynthConfig, synth_dataset, write_corpus

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2


def _load_synth_config(path, seed):
    if path is None:
        return SynthConfig(seed=seed) if seed is not None else SynthConfig()
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    class_fields = {"slow", "fast", "baseline"}
    kwargs = {}
    for key, value in doc.items():
        if key in class_fields:
            kwargs[key] = ingest.ClassParams(**value)
        else:
            kwargs[key] = value
    if seed is not None:
        kwargs["seed"] = seed
    return SynthConfig(**kwargs)


def cmd_synth(args):
    try:
        config = _load_synth_config(args.config, args.seed)
        config.validate()
    except (TimesenseError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    sessions = synth_dataset(config)
    try:
        manifest = write_corpus(sessions, args.out)
    except OSError as exc:
        print(f"error: cannot write corpus: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(sessions)} sessions to {args.out} (manifest: {manifest})")
    return EXIT_OK


def cmd_extract(args):
    try:
        entries, base_dir = ingest.load_manifest(args.manifest)
    except (OSError, TimesenseError, json.JSONDecodeError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_IO
    sessions = []
    failures = []
    for entry in entries:
        ident = f"participant {entry.get('participant_id')} session {entry.get('session_index')}"
        try:
            sessions.append(ingest.load_session(entry, base_dir))
        except TimesenseError as exc:
            failures.append(f"{ident}: {exc}")
    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        dataset = pipeline.assemble(sessions)
    except TimesenseError as exc:
        print(f"error: extraction failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        pipeline.dataset_to_csv(dataset, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(dataset)} rows to {args.out}")
    return EXIT_OK


def cmd_evaluate(args):
    try:
        dataset = pipeline.dataset_from_csv(args.features)
    except OSError as exc:
        print(f"error: cannot read {args.features}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TimesenseError) as exc:
        print(f"error: malformed features file: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        if args.classifier == "all":
            matrix = report_matrix(dataset, MATRIX_KINDS, SELECTION_MODES,
                                   scaler_method=args.scaling, seed=args.seed)
            doc = {"schema_version": 1, "scaling": args.scaling, "seed": args.seed,
                   "matrix": matrix}
        else:
            config = ClassifierConfig(args.classifier, seed=args.seed)
            if args.selection == "rfecv" and not config.supports_importance():
                print(f"error: {args.classifier} cannot be combined with rfecv: "
                      "it implements no feature importance measure", file=sys.stderr)
                return EXIT_DOMAIN
            report = losocv(dataset, config, scaler_method=args.scaling,
                            selection=selection_spec(args.selection), seed=args.seed)
            doc = report_to_jsonable(report)
            doc.update({"classifier": args.classifier, "selection": args.selection,
                        "scaling": args.scaling, "seed": args.seed})
    except UnsupportedClassifier as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except TimesenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        write_report_json(doc, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote report to {args.out}")
    return EXIT_OK


def cmd_explain(args):
    try:
        dataset = pipeline.dataset_from_csv(args.features)
    except OSError as exc:
        print(f"error: cannot read {args.features}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TimesenseError) as exc:
        print(f"error: malformed features file: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        config = ClassifierConfig(args.classifier, seed=args.seed)
        model = train(config, dataset.X, dataset.y)
        ranking = mean_abs_shap(model, dataset, n_samples=args.n_samples, seed=args.seed)
    except TimesenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    lines = ["# schema_version=1", "feature,mean_abs_shap,rank"]
    for name, value, rank in ranking:
        lines.append(f"{name},{value!r},{rank}")
    try:
        write_atomic(args.out, "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote ranking to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="timesense",
        description="Classify subjective passage of time from wearable physiology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", default=None, help="JSON generator config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract the feature dataset from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="features CSV path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="run leave-one-subject-out evaluation")
    p.add_argument("--features", required=True)
    p.add_argument("--classifier", required=True,
                   choices=list(MATRIX_KINDS) + ["all"])
    p.add_argument("--selection", default="none", choices=list(SELECTION_MODES))
    p.add_argument("--scaling", default="minmax", choices=["none", "minmax", "zscore"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="rank features by mean |shap value|")
    p.add_argument("--features", required=True)
    p.add_argument("--classifier", required=True, choices=list(MATRIX_KINDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-samples", type=int, default=256)
    p.add_argument("--out", required=True, help="ranking CSV path")
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
