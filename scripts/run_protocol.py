#!/usr/bin/env python3
"""End-to-end synthetic experiment: every predictor row, both failure scenarios.

Generates a calibration-scale run set, labels it, induces the missing-target
scenario, trains one classifier per turn pair for a grid of predictor rows,
and renders an accuracy grid per scenario plus a McNemar comparison of the
autoencoder against the strongest baseline row. Both scenarios are evaluated
together, so that each turn pair's cells of a grid row train as one stack.
Takes under a minute at the default scale (11.4-12.6 s and 128 MB peak RSS
on a 2-core machine with one BLAS thread); everything is seeded and
reproducible.

Usage:
    python scripts/run_protocol.py --seed 7 --outdir out/
"""

import argparse
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from convpred import classifiers, data_io, evaluation, scenario
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


def split_for(runs, labels, seed):
    """The seeded stratified split; its warnings go to stderr."""
    split = split_of(runs, labels, seed)
    warn(split.warnings)
    return split


def evaluate_scenarios(scenarios, seed, pairs, settings, streams):
    """One report per (runs, labels, split) scenario over every grid row.

    Each grid row evaluates all scenarios in one call, so that their cells of
    a pair train as one stack.
    """
    runs, labels, splits = zip(*scenarios)
    reports = [evaluation.EvalReport() for _ in scenarios]
    for predictor, classifier in GRID:
        report = evaluation.run_turn_pair(
            runs, labels, predictor, classifier, splits,
            pairs=pairs, settings=settings, seed=seed, streams=streams,
        )
        for combined, label_set in zip(reports, labels):
            combined.extend(report.of_scenario(label_set.scenario))
    return reports


def print_means(report):
    """One line per grid row: its mean accuracy over the report's pairs."""
    for predictor, classifier in GRID:
        accuracies = [row.accuracy for row in report.rows
                      if (row.predictor, row.classifier) == (predictor, classifier)]
        label = f"{predictor}/{classifier}"
        print(f"  {label:{LABEL_WIDTH}s} [{report.rows[0].scenario}] mean accuracy "
              f"{np.mean(accuracies):.3f}")


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
    settings = evaluation.EvalSettings(ae_epochs=args.epochs)
    args.outdir.mkdir(parents=True, exist_ok=True)

    config = data_io.GenConfig(
        n_conversations=args.n, dim=32, catalogue_size=2000, seed=args.seed
    )
    print(f"generating {args.n} conversations (seed {args.seed}) ...")
    runs = data_io.generate_synthetic(config)
    data_io.write_runs(runs, args.outdir / "runs.jsonl",
                       header_comment=f"protocol gen seed={args.seed} n={args.n}")

    base_labels = scenario.label_runs(runs, cutoff=100)
    base_split = split_for(runs, base_labels, args.seed)
    modified, missing_labels = scenario.induce_missing(
        runs, base_labels, fraction=args.fraction, seed=args.seed
    )
    missing_split = split_of(modified, missing_labels, args.seed)
    # one tree-substream store for the grid: every forest of a turn pair, in
    # either scenario, has the same cell seed, so they share bootstraps and
    # candidate draws
    streams = classifiers.TreeStreams()
    print("base scenario:")
    base_report, missing_report = evaluate_scenarios(
        [(runs, base_labels, base_split), (modified, missing_labels, missing_split)],
        args.seed, pairs, settings, streams,
    )
    print_means(base_report)
    print(f"missing-target scenario ({len(missing_labels.forced)} targets removed):")
    # printed where a run that evaluates the scenarios one after another would print them
    warn(missing_split.warnings)
    print_means(missing_report)

    combined = evaluation.EvalReport()
    combined.extend(base_report)
    combined.extend(missing_report)
    warn(combined.warnings)

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
