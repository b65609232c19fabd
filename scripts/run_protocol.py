#!/usr/bin/env python3
"""End-to-end synthetic experiment: every predictor row, both failure scenarios.

Generates a calibration-scale run set, labels it, induces the missing-target
scenario, trains one classifier per turn pair for a grid of predictor rows,
and renders an accuracy grid per scenario plus a McNemar comparison of the
autoencoder against the strongest baseline row. Takes under a minute at the
default scale (about 18 s and 121 MB peak RSS on a 2-core machine with one
BLAS thread); everything is seeded and reproducible.

Usage:
    python scripts/run_protocol.py --seed 7 --outdir out/
"""

import argparse
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from convpred import data_io, evaluation, features, scenario
from convpred.core import ValidationError

# predictor rows mirroring the usual comparison: coherence and score features
# behind a random forest, the strongest coherence feature behind logistic and
# L1-shrinkage linear classifiers, and the autoencoder with its own head
GRID = [
    ("score", "forest"),
    ("ac", "forest"),
    ("wand", "forest"),
    ("rv", "forest"),
    ("apr", "forest"),
    ("apr", "logreg"),
    ("apr", "lasso"),
    ("ae", "ae-head"),
]
LABEL_WIDTH = max(len(f"{predictor}/{classifier}") for predictor, classifier in GRID)


def split_for(runs, labels, seed):
    """The seeded stratified split; its warnings go to stderr."""
    split = evaluation.split_conversations(
        [r.conversation_id for r in runs], labels.final_labels(), seed=seed
    )
    for warning in split.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return split


def evaluate_scenario(runs, labels, split, seed, pairs, settings, table):
    combined = evaluation.EvalReport()
    for predictor, classifier in GRID:
        report = evaluation.run_turn_pair(
            runs, labels, predictor, classifier, split,
            pairs=pairs, settings=settings, seed=seed, table=table,
        )
        mean_acc = np.mean([row.accuracy for row in report.rows])
        label = f"{predictor}/{classifier}"
        print(f"  {label:{LABEL_WIDTH}s} [{labels.scenario}] mean accuracy {mean_acc:.3f}")
        combined.extend(report)
    return combined


def mcnemar_vs_best_baseline(report):
    """Per-cell McNemar of the AE row against the best-mean-accuracy baseline row."""
    by_row = defaultdict(list)
    for record in report.predictions:
        predictor, classifier, _ = record.cell_id.split("|", 2)
        by_row[(predictor, classifier)].append(record)

    def mean_accuracy(records):
        return np.mean([r.predicted == r.actual for r in records])

    baselines = {k: v for k, v in by_row.items() if k[0] != "ae"}
    best = max(baselines, key=lambda k: mean_accuracy(baselines[k]))
    lines = [f"McNemar: ae/ae-head vs best baseline {best[0]}/{best[1]}"]
    paired = evaluation.paired_predictions(by_row[("ae", "ae-head")], by_row[best])
    for cell in sorted(paired):
        chi2, significant = evaluation.mcnemar(*paired[cell])
        marker = "*" if significant else " "
        lines.append(f"  {cell}: chi2={chi2:6.3f} {marker}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--fraction", type=float, default=0.3)
    parser.add_argument("--pairs", default="2-9", help="train-turn range")
    parser.add_argument("--epochs", type=int, default=100)
    args = parser.parse_args()
    try:
        return run(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    pairs = evaluation.parse_pairs(args.pairs)
    args.outdir.mkdir(parents=True, exist_ok=True)
    settings = evaluation.EvalSettings(ae_epochs=args.epochs)

    config = data_io.GenConfig(
        n_conversations=args.n, dim=32, catalogue_size=2000, seed=args.seed
    )
    print(f"generating {args.n} conversations (seed {args.seed}) ...")
    runs = data_io.generate_synthetic(config)
    data_io.write_runs(runs, args.outdir / "runs.jsonl",
                       header_comment=f"protocol gen seed={args.seed} n={args.n}")

    base_labels = scenario.label_runs(runs, cutoff=100)
    base_split = split_for(runs, base_labels, args.seed)
    # one feature table for both scenarios: the runs that induction leaves
    # untouched are the same objects, so their rows are computed once
    table = features.FeatureTable()
    print("base scenario:")
    base_report = evaluate_scenario(runs, base_labels, base_split, args.seed, pairs, settings, table)

    modified, missing_labels = scenario.induce_missing(
        runs, base_labels, fraction=args.fraction, seed=args.seed
    )
    print(f"missing-target scenario ({len(missing_labels.forced)} targets removed):")
    missing_split = split_for(modified, missing_labels, args.seed)
    missing_report = evaluate_scenario(
        modified, missing_labels, missing_split, args.seed, pairs, settings, table
    )

    combined = evaluation.EvalReport()
    combined.extend(base_report)
    combined.extend(missing_report)
    for warning in combined.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    # cutoff mode relabels at each cutoff; its split comes from the cutoff-100 base labels
    cutoff_report = evaluation.cutoff_sensitivity(runs, base_split, settings=settings, seed=args.seed)
    print("cutoff sensitivity (top-1 input, single turn):")
    for row in cutoff_report.rows:
        print(f"  found at {row.cutoff:3d}: accuracy {row.accuracy:.3f}")
    combined.extend(cutoff_report)

    evaluation.write_report(combined, args.outdir / "report.csv",
                            header_comment=f"protocol seed={args.seed}")
    evaluation.write_predictions(combined, args.outdir / "predictions.csv",
                                 header_comment=f"protocol seed={args.seed}")

    _, grid_text = evaluation.render_grid(combined.rows)
    significance = mcnemar_vs_best_baseline(
        evaluation.EvalReport(
            rows=base_report.rows + missing_report.rows,
            predictions=base_report.predictions + missing_report.predictions,
        )
    )
    text = grid_text + "\n\n" + significance + "\n"
    (args.outdir / "grid.txt").write_text(text)
    print()
    print(text)
    print(f"artifacts in {args.outdir}/: runs.jsonl report.csv predictions.csv grid.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
