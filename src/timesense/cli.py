"""Command-line surface: synth, extract, evaluate, explain.

Exit codes: 0 success; 1 when an input file is missing (MissingFile) or a
file cannot be read or written (OSError); 2 for every other library error
(InvalidInput, InsufficientData, Unsupported, FeatureExtractionError). Each
error class carries its code; ``main`` prints one ``error:`` line.
"""

import argparse
import sys
from dataclasses import replace

from . import ingest, pipeline
from .classifiers import ClassifierConfig, train
from .errors import InvalidInput, TimesenseError
from .evaluate import (MATRIX_KINDS, MATRIX_SCHEMA_VERSION, SELECTION_MODES, losocv,
                       report_matrix, report_to_jsonable)
from .explain import RANKING_SCHEMA_VERSION, mean_abs_shap
from .fileio import read_json, write_atomic, write_json
from .ingest import synth_dataset, write_corpus

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2


def _load_synth_config(path, seed):
    """The generator config from a JSON object of SynthConfig fields (the
    defaults when ``path`` is None); ``seed``, when given, overrides."""
    doc = {} if path is None else read_json(path)
    config = ingest.synth_config_from_json(doc, where=path or "config")
    return config if seed is None else replace(config, seed=seed)


def cmd_synth(args):
    sessions = synth_dataset(_load_synth_config(args.config, args.seed))
    manifest = write_corpus(sessions, args.out)
    print(f"wrote {len(sessions)} sessions to {args.out} (manifest: {manifest})")
    return EXIT_OK


def cmd_extract(args):
    """Every session that fails to load prints its own ``error:`` line; the
    exit code is that of the first failure's error."""
    entries, base_dir = ingest.load_manifest(args.manifest)
    sessions = []
    failures = []
    for entry in entries:
        ident = f"participant {entry.get('participant_id')} session {entry.get('session_index')}"
        try:
            sessions.append(ingest.load_session(entry, base_dir))
        except TimesenseError as exc:
            print(f"error: {ident}: {exc}", file=sys.stderr)
            failures.append(exc)
    if failures:
        return failures[0].exit_code
    dataset = pipeline.assemble(sessions)
    pipeline.dataset_to_csv(dataset, args.out)
    print(f"wrote {len(dataset)} rows to {args.out}")
    return EXIT_OK


def cmd_evaluate(args):
    """One classifier's LOSOCV report (selection "none" unless given), or
    with ``--classifier all`` the matrix of every kind and selection mode,
    which refuses a ``--selection`` it would not read."""
    if args.classifier == "all" and args.selection is not None:
        raise InvalidInput("--selection does not apply to --classifier all, "
                           "whose matrix runs every selection mode")
    dataset = pipeline.dataset_from_csv(args.features)
    if args.classifier == "all":
        matrix = report_matrix(dataset, scaler_method=args.scaling, seed=args.seed)
        doc = {"schema_version": MATRIX_SCHEMA_VERSION, "scaling": args.scaling,
               "seed": args.seed, "matrix": matrix}
    else:
        selection = args.selection or "none"
        report = losocv(dataset, ClassifierConfig(args.classifier, seed=args.seed),
                        scaler_method=args.scaling, selection=(selection, None),
                        seed=args.seed)
        doc = report_to_jsonable(report)
        doc.update({"classifier": args.classifier, "selection": selection,
                    "scaling": args.scaling, "seed": args.seed})
    write_json(args.out, doc)
    print(f"wrote report to {args.out}")
    return EXIT_OK


def cmd_explain(args):
    dataset = pipeline.dataset_from_csv(args.features)
    model = train(ClassifierConfig(args.classifier, seed=args.seed), dataset.X, dataset.y)
    ranking = mean_abs_shap(model, dataset, n_samples=args.n_samples, seed=args.seed)
    lines = [f"# schema_version={RANKING_SCHEMA_VERSION}", "feature,mean_abs_shap,rank"]
    for name, value, rank in ranking:
        lines.append(f"{name},{value!r},{rank}")
    write_atomic(args.out, "\n".join(lines) + "\n")
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
    p.add_argument("--selection", default=None, choices=list(SELECTION_MODES),
                   help='one classifier\'s selection mode (default "none")')
    p.add_argument("--scaling", default="minmax", choices=list(pipeline.SCALER_METHODS))
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
    """Run one command; a library error or an unreadable or unwritable file
    ends it with one ``error:`` line on stderr and the error's exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TimesenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
