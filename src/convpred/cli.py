"""Command-line pipeline: generate/ingest runs, label them, induce the
missing-target scenario, export features, train and evaluate predictors, and
render report grids. Subcommands compose via files; every output embeds the
settings and seeds that produced it in a leading comment line, so any stage
can be re-run exactly.
"""

from __future__ import annotations

import argparse
import sys

from . import data_io, evaluation, features, scenario
from .core import ValidationError, write_csv, write_header
from .evaluation import CLASSIFIERS, PREDICTORS, EvalSettings

FEATURE_CHOICES = tuple(features.FEATURE_KINDS)

# each setting flag's dest, in flag and header order, and the config field it sets
GEN_FLAGS = {"n": "n_conversations", "turns": "n_turns", "dim": "dim",
             "catalogue": "catalogue_size", "top_n": "top_n", "easy_fraction": "easy_fraction",
             "pull_easy": "pull_rate_easy", "pull_hard": "pull_rate_hard", "sigma": "noise_sigma",
             "pull_decay": "pull_decay", "seed": "seed"}
EVAL_FLAGS = {"top_n": "top_n", "epochs": "ae_epochs", "lr": "ae_learning_rate",
              "lasso_lambda": "lasso_lambda", "n_trees": "n_trees"}


def _add_flags(parser, flags: dict, defaults) -> None:
    """One ``--dest`` flag per entry, typed and defaulted by its field of ``defaults``."""
    for dest, name in flags.items():
        value = getattr(defaults, name)
        flag = "--" + dest.replace("_", "-")
        parser.add_argument(flag, type=type(value), default=value, help=name)


def _from_flags(config_type, flags: dict, args):
    """The ``config_type`` that ``flags`` set from ``args``, and its ``dest=value`` fields."""
    config = config_type(**{name: getattr(args, dest) for dest, name in flags.items()})
    return config, " ".join(f"{dest}={getattr(config, name)}" for dest, name in flags.items())


def _read_runs(path):
    runs = data_io.read_runs(path)
    if not runs:
        raise ValidationError(f"{path} holds no conversations")
    return runs


def cmd_gen(args) -> int:
    config, recorded = _from_flags(data_io.GenConfig, GEN_FLAGS, args)
    runs = data_io.generate_synthetic(config)
    data_io.write_runs(runs, args.out, header_comment=f"# convpred gen {recorded}")
    print(f"wrote {args.out} ({len(runs)} conversations)")
    return 0


def cmd_label(args) -> int:
    runs = _read_runs(args.runs)
    labels = scenario.label_runs(runs, cutoff=args.cutoff)
    header = f"# convpred label runs={args.runs} cutoff={args.cutoff}"
    scenario.write_labels(labels, args.out, header_comment=header)
    n_found = sum(labels.final_labels().values())
    print(f"wrote {args.out} ({len(labels.labels)} conversations, {n_found} found by final turn)")
    return 0


def cmd_scenario(args) -> int:
    runs = _read_runs(args.runs)
    base = scenario.label_runs(runs, cutoff=args.cutoff)
    modified, missing = scenario.induce_missing(runs, base, fraction=args.fraction, seed=args.seed)
    header = (
        f"# convpred scenario runs={args.runs} cutoff={args.cutoff} "
        f"fraction={args.fraction} seed={args.seed}"
    )
    data_io.write_runs(modified, args.out, header_comment=header)
    scenario.write_labels(missing, args.labels, header_comment=header)
    print(
        f"wrote {args.out} and {args.labels} "
        f"({len(missing.forced)} of {len(runs)} conversations forced to missing-target)"
    )
    return 0


def cmd_features(args) -> int:
    runs = _read_runs(args.runs)
    matrix = features.build_feature_matrix(
        runs, args.predictor, args.upto_turn, top_n=args.top_n, mode=args.mode
    )
    header = (
        f"# convpred features runs={args.runs} predictor={args.predictor} "
        f"upto_turn={args.upto_turn} top_n={args.top_n} mode={args.mode}"
    )
    features.write_features(matrix, args.out, header_comment=header)
    print(f"wrote {args.out} ({matrix.values.shape[0]} rows x {matrix.values.shape[1]} columns)")
    return 0


def cmd_eval(args) -> int:
    if args.mode == "cutoff":
        cutoffs = evaluation.parse_cutoffs(args.cutoffs)
    else:
        pairs = evaluation.parse_pairs(args.pairs)
    settings, recorded = _from_flags(EvalSettings, EVAL_FLAGS, args)
    runs = _read_runs(args.runs)
    header = (
        f"# convpred eval runs={args.runs} labels={args.labels} predictor={args.predictor} "
        f"classifier={args.classifier} mode={args.mode} pairs={args.pairs} seed={args.seed} "
        f"split_ratio={args.split_ratio} stratified={not args.no_stratify} {recorded}"
    )
    if args.mode == "cutoff":
        labels = scenario.label_runs(runs, cutoff=max(cutoffs))
    elif args.labels is None:
        raise ValidationError("--labels is required for multi/single evaluation")
    else:
        labels = scenario.read_labels(args.labels)
    split = evaluation.split_conversations(
        [r.conversation_id for r in runs],
        labels.final_labels(),
        ratio=args.split_ratio,
        seed=args.seed,
        stratified=not args.no_stratify,
    )
    for warning in split.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.mode == "cutoff":
        pair = (args.pair, args.pair + 1)
        report = evaluation.cutoff_sensitivity(
            runs, split, cutoffs=cutoffs, pair=pair, settings=settings, seed=args.seed
        )
    else:
        report = evaluation.run_turn_pair(
            runs,
            labels,
            args.predictor,
            args.classifier,
            split,
            pairs=pairs,
            settings=settings,
            seed=args.seed,
            mode=args.mode,
        )
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    evaluation.write_report(report, args.report, header_comment=header)
    evaluation.write_predictions(report, args.predictions, header_comment=header)
    for row in report.rows:
        print(
            f"{row.predictor}/{row.classifier} {row.scenario} {row.mode} "
            f"pair {row.turn_train},{row.turn_eval} cutoff {row.cutoff}: "
            f"accuracy {row.accuracy:.4f} (n={row.n_test})"
        )
    return 0


def cmd_compare(args) -> int:
    paired = evaluation.paired_predictions(
        evaluation.read_predictions(args.a), evaluation.read_predictions(args.b)
    )
    if args.pooled:
        pa = [p for ps, _, _ in paired.values() for p in ps]
        pb = [p for _, ps, _ in paired.values() for p in ps]
        actual = [a for _, _, acts in paired.values() for a in acts]
        paired = {"pooled": (pa, pb, actual)}

    lines = []
    out_rows = [["cell", "accuracy_a", "accuracy_b", "chi2", "significant"]]
    for label, (pa, pb, actual) in paired.items():
        chi2, significant = evaluation.mcnemar(pa, pb, actual)
        acc_a = evaluation.accuracy(pa, actual)
        acc_b = evaluation.accuracy(pb, actual)
        lines.append(
            f"{label}: acc_a={acc_a:.4f} acc_b={acc_b:.4f} chi2={chi2:.4f} "
            f"significant={'yes' if significant else 'no'}"
        )
        out_rows.append([label, repr(acc_a), repr(acc_b), repr(chi2), int(significant)])

    print("\n".join(lines))
    if args.out:
        write_csv(args.out, f"convpred compare a={args.a} b={args.b} pooled={args.pooled}", out_rows)
        print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        rows.extend(evaluation.read_report(path))
    if not rows:
        raise ValidationError("no report rows found in the input files")
    grid_csv, text = evaluation.render_grid(rows)
    header = f"convpred report inputs={','.join(args.inputs)}"
    if args.out_csv:
        write_csv(args.out_csv, header, grid_csv)
    if args.out_text:
        with open(args.out_text, "w", encoding="utf-8") as fh:
            write_header(fh, header)
            fh.write(text)
            fh.write("\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convpred",
        description="Predict conversational recommendation failures from multi-turn retrieval runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic run file")
    _add_flags(p, GEN_FLAGS, data_io.calibration_config())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("label", help="compute base-scenario labels from a run file")
    p.add_argument("--runs", required=True)
    p.add_argument("--cutoff", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("scenario", help="induce the missing-target scenario")
    p.add_argument("--runs", required=True)
    p.add_argument("--cutoff", type=int, default=100)
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="modified run file")
    p.add_argument("--labels", required=True, help="missing-target labels CSV")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("features", help="export a feature matrix CSV")
    p.add_argument("--runs", required=True)
    p.add_argument("--predictor", choices=FEATURE_CHOICES, required=True)
    p.add_argument("--upto-turn", type=int, required=True, dest="upto_turn")
    p.add_argument("--top-n", type=int, default=EvalSettings().top_n, dest="top_n")
    p.add_argument("--mode", choices=("multi", "single"), default="multi")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("eval", help="train and evaluate per turn pair")
    p.add_argument("--runs", required=True)
    p.add_argument("--labels", help="labels CSV (required for multi/single modes)")
    p.add_argument("--predictor", choices=PREDICTORS, default="ae")
    p.add_argument("--classifier", choices=CLASSIFIERS, default="ae-head")
    p.add_argument("--mode", choices=("multi", "single", "cutoff"), default="multi")
    p.add_argument("--pairs", default="2-9", help="train-turn range, e.g. 2-9")
    p.add_argument("--pair", type=int, default=5, help="train turn for cutoff mode")
    p.add_argument("--cutoffs", default="1,20,100", help="cutoff grid for cutoff mode")
    p.add_argument("--split-ratio", type=float, default=0.7, dest="split_ratio")
    p.add_argument("--no-stratify", action="store_true", dest="no_stratify")
    p.add_argument("--seed", type=int, default=0)
    _add_flags(p, EVAL_FLAGS, EvalSettings())
    p.add_argument("--report", required=True)
    p.add_argument("--predictions", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="McNemar test between two prediction files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--pooled", action="store_true", help="pool all shared cells before testing")
    p.add_argument("--out", help="optional CSV output")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="render report CSVs as a turn-pair grid")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-text", dest="out_text")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
