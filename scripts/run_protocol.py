#!/usr/bin/env python3
"""End-to-end synthetic experiment: every predictor row, both failure scenarios.

Generates a calibration-scale run set, labels it, induces the missing-target
scenario, trains one classifier per turn pair for a grid of predictor rows,
and renders an accuracy grid per scenario plus a McNemar comparison of the
autoencoder against the strongest baseline row. The whole grid, every row
under both scenarios, is one ``run_turn_pair`` call, so that each turn pair's
cells of a grid row train as one stack and forests of one key share draws.
Takes under a minute at the default scale; everything is seeded and
reproducible.

Usage:
    python scripts/run_protocol.py --seed 7 --outdir out/
"""

import argparse
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from convpred import data_io, evaluation, scenario
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


def warn(warnings):
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def split_of(runs, labels, seed):
    """The seeded stratified split."""
    return evaluation.split_conversations(
        [r.conversation_id for r in runs], labels.final_labels(), seed=seed
    )


def print_means(report, scenario_name):
    """One line per grid row: its mean accuracy over the scenario's pairs."""
    for predictor, classifier in GRID:
        accuracies = [row.accuracy for row in report.rows
                      if (row.predictor, row.classifier, row.scenario)
                      == (predictor, classifier, scenario_name)]
        label = f"{predictor}/{classifier}"
        print(f"  {label:{LABEL_WIDTH}s} [{scenario_name}] mean accuracy "
              f"{np.mean(accuracies):.3f}")


def mcnemar_vs_best_baseline(predictions):
    """Per-cell McNemar of the AE row against the best-mean-accuracy baseline row."""
    by_row = defaultdict(list)
    for record in predictions:
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
    parser.add_argument("--n", type=int, default=data_io.calibration_config().n_conversations)
    parser.add_argument("--fraction", type=float, default=0.3)
    parser.add_argument("--pairs", default="2-9", help="train-turn range")
    parser.add_argument("--epochs", type=int, default=evaluation.EvalSettings().ae_epochs)
    args = parser.parse_args()
    try:
        return run(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    pairs = evaluation.parse_pairs(args.pairs)
    settings = evaluation.EvalSettings(ae_epochs=args.epochs)
    args.outdir.mkdir(parents=True, exist_ok=True)

    config = replace(data_io.calibration_config(args.seed), n_conversations=args.n)
    print(f"generating {args.n} conversations (seed {args.seed}) ...")
    runs = data_io.generate_synthetic(config)
    data_io.write_runs(runs, args.outdir / "runs.jsonl",
                       header_comment=f"protocol gen seed={args.seed} n={args.n}")

    base_labels = scenario.label_runs(runs, cutoff=100)
    base_split = split_of(runs, base_labels, args.seed)
    warn(base_split.warnings)
    modified, missing_labels = scenario.induce_missing(
        runs, base_labels, fraction=args.fraction, seed=args.seed
    )
    missing_split = split_of(modified, missing_labels, args.seed)
    print("base scenario:")
    scenarios = [(runs, base_labels, base_split), (modified, missing_labels, missing_split)]
    # one problem per (scenario, grid row), the base scenario's rows first
    problems = [(scen_runs, labels, predictor, classifier, split)
                for scen_runs, labels, split in scenarios for predictor, classifier in GRID]
    report = evaluation.run_turn_pair(*zip(*problems), pairs=pairs, settings=settings, seed=args.seed)
    print_means(report, base_labels.scenario)
    print(f"missing-target scenario ({len(missing_labels.forced)} targets removed):")
    # printed where a run that evaluates the scenarios one after another would print them
    warn(missing_split.warnings)
    print_means(report, missing_labels.scenario)
    warn(report.warnings)
    significance = mcnemar_vs_best_baseline(report.predictions)

    # cutoff mode relabels at each cutoff; its split comes from the cutoff-100 base labels
    cutoff_report = evaluation.cutoff_sensitivity(runs, base_split, settings=settings, seed=args.seed)
    print("cutoff sensitivity (top-1 input, single turn):")
    for row in cutoff_report.rows:
        print(f"  found at {row.cutoff:3d}: accuracy {row.accuracy:.3f}")
    report.extend(cutoff_report)

    evaluation.write_report(report, args.outdir / "report.csv",
                            header_comment=f"protocol seed={args.seed}")
    evaluation.write_predictions(report, args.outdir / "predictions.csv",
                                 header_comment=f"protocol seed={args.seed}")

    _, grid_text = evaluation.render_grid(report.rows)
    text = grid_text + "\n\n" + significance + "\n"
    (args.outdir / "grid.txt").write_text(text)
    print()
    print(text)
    print(f"artifacts in {args.outdir}/: runs.jsonl report.csv predictions.csv grid.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
