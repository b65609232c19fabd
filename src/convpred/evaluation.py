"""The experimental protocol: conversation-level splits, per-turn-pair
training and evaluation, a single-turn ablation, rank-cutoff sensitivity,
accuracy, McNemar significance between paired predictors, and the report
grid.

A turn pair (T, T+1) trains a fresh classifier on features from turns 1..T
(or turn T alone in single mode) against the found-by-turn-(T+1) label, and
scores it on the held-out conversations. Reports are pure functions of
(runs, labels, settings, seeds): train/test sets never overlap and no test
statistics leak into training (the trainers that standardize do so inside,
on the train rows only).

Every cell of a report goes through one path. ``_check_cells`` checks that
the split and the labels cover the runs and keeps the usable pairs;
``_evaluate_cell`` then fits and scores one (predictor, classifier,
scenario, mode, pair, cutoff) cell and builds its report row and prediction
records. ``run_turn_pair`` (multi and single mode) and
``cutoff_sensitivity`` only read per-turn feature blocks from a
:class:`~convpred.features.FeatureTable` and loop over cells; callers that
evaluate the same runs again pass one table, so each turn's features are
computed once. A
cell is named ``predictor|classifier|scenario|mode|T,E|cutoffC``;
``paired_predictions`` matches cells on the last four fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autoencoder, classifiers
from .core import ValidationError, read_csv, round_half_up, write_csv
from .features import FEATURE_KINDS, FeatureTable
from .features import turn_features  # noqa: F401  (perfbench/tracing.py wraps this name)
from .scenario import LabelSet, label_runs

__all__ = [
    "Split",
    "ReportRow",
    "PredictionRecord",
    "EvalReport",
    "EvalSettings",
    "PREDICTORS",
    "CLASSIFIERS",
    "split_conversations",
    "parse_pairs",
    "parse_cutoffs",
    "run_turn_pair",
    "run_single_turn",
    "cutoff_sensitivity",
    "accuracy",
    "mcnemar",
    "MCNEMAR_CRITICAL",
    "write_report",
    "read_report",
    "write_predictions",
    "read_predictions",
    "paired_predictions",
    "render_grid",
]

PREDICTORS = ("ae", "ac", "wand", "rv", "apr", "score")
CLASSIFIERS = ("ae-head", "logreg", "lasso", "forest")
DEFAULT_PAIRS = tuple((t, t + 1) for t in range(2, 10))
MCNEMAR_CRITICAL = 3.841459  # chi-squared, 1 dof, p = 0.05


@dataclass(frozen=True)
class Split:
    """Disjoint train/test conversation ids covering the full set."""

    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    seed: int
    stratified: bool
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReportRow:
    predictor: str
    classifier: str
    scenario: str
    mode: str
    turn_train: int
    turn_eval: int
    cutoff: int
    accuracy: float
    n_test: int


@dataclass(frozen=True)
class PredictionRecord:
    cell_id: str
    conversation_id: str
    predicted: int
    actual: int


@dataclass(eq=False)
class EvalReport:
    """Report rows and prediction records, plus each warning about cells not run, once."""

    rows: list[ReportRow] = field(default_factory=list)
    predictions: list[PredictionRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def extend(self, other: "EvalReport") -> None:
        self.rows.extend(other.rows)
        self.predictions.extend(other.predictions)
        self.warnings.extend(w for w in other.warnings if w not in self.warnings)


@dataclass(frozen=True)
class EvalSettings:
    """Per-cell hyperparameters; defaults mirror the shipped protocol."""

    top_n: int = 100
    ae_epochs: int = 100
    ae_learning_rate: float = 0.01
    ae_hidden_dim: int | None = None
    ae_bottleneck_dim: int | None = None
    lasso_lambda: float = 0.1
    lasso_iters: int = 1000
    logistic_iters: int = 500
    n_trees: int = 100


def split_conversations(
    ids,
    final_labels: dict[str, int],
    ratio: float = 0.7,
    seed: int = 0,
    stratified: bool = True,
) -> Split:
    """Seeded conversation-level split with |train| = round(ratio * n).

    When stratified, the ratio holds within each label class up to rounding
    (largest-remainder allocation keeps the total exact). A class with fewer
    than 2 members falls back to an unstratified shuffle with a warning. A
    ratio that leaves either side empty is an error.
    """
    ids = list(ids)
    n = len(ids)
    if n < 2:
        raise ValueError("need at least 2 conversations to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    n_train = round_half_up(ratio * n)
    if not 0 < n_train < n:
        side = "train" if n_train == 0 else "test"
        raise ValueError(f"split ratio {ratio} leaves the {side} side empty for {n} conversations")
    rng = np.random.default_rng(seed)
    shuffled = [ids[i] for i in rng.permutation(n)]
    warnings: tuple[str, ...] = ()

    if stratified:
        by_class: dict[int, list[str]] = {}
        for cid in shuffled:
            if cid not in final_labels:
                raise ValidationError(f"labels missing conversation {cid!r}")
            by_class.setdefault(final_labels[cid], []).append(cid)
        if any(len(members) < 2 for members in by_class.values()):
            warnings = ("stratification fell back to plain shuffling: a class has < 2 members",)
            stratified = False
        else:
            quotas = {label: ratio * len(members) for label, members in by_class.items()}
            take = {label: int(np.floor(q)) for label, q in quotas.items()}
            leftover = n_train - sum(take.values())
            for label in sorted(quotas, key=lambda c: (-(quotas[c] - take[c]), c)):
                if leftover <= 0:
                    break
                take[label] += 1
                leftover -= 1
            train: list[str] = []
            test: list[str] = []
            for label in sorted(by_class):
                members = by_class[label]
                train.extend(members[: take[label]])
                test.extend(members[take[label] :])
            return Split(tuple(train), tuple(test), seed, True, warnings)

    return Split(tuple(shuffled[:n_train]), tuple(shuffled[n_train:]), seed, stratified, warnings)


def parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    """The turn pairs (T, T+1) of a train-turn range "T" or "T-U", 1 <= T <= U."""
    lo, _, hi = text.partition("-")
    try:
        start, end = int(lo), int(hi or lo)
    except ValueError:
        start = end = 0
    if start < 1 or end < start:
        raise ValidationError(f"bad --pairs range {text!r} (expected T or T-U with 1 <= T <= U)")
    return tuple((t, t + 1) for t in range(start, end + 1))


def parse_cutoffs(text: str) -> tuple[int, ...]:
    """The rank cutoffs of a comma-separated list of integers >= 1, such as "1,20,100"."""
    try:
        cutoffs = tuple(int(c) for c in text.split(","))
    except ValueError:
        cutoffs = (0,)
    if min(cutoffs) < 1:
        raise ValidationError(f"bad --cutoffs {text!r} (expected comma-separated integers >= 1)")
    return cutoffs


def _cell_seed(seed: int, turn_train: int, cutoff: int) -> int:
    return int(np.random.SeedSequence((seed, turn_train, cutoff)).generate_state(1)[0])


def _fit_predict(classifier, X_train, y_train, X_test, settings: EvalSettings, cell_seed: int):
    if classifier == "ae-head":
        config = autoencoder.AEConfig(
            input_dim=X_train.shape[1],
            hidden_dim=settings.ae_hidden_dim,
            bottleneck_dim=settings.ae_bottleneck_dim,
            learning_rate=settings.ae_learning_rate,
            epochs=settings.ae_epochs,
            seed=cell_seed,
        )
        model, _ = autoencoder.train(X_train, y_train, config)
        return autoencoder.predict(model, X_test)
    if classifier == "logreg":
        model = classifiers.train_logistic(X_train, y_train, iters=settings.logistic_iters)
    elif classifier == "lasso":
        model = classifiers.train_lasso(
            X_train, y_train, lam=settings.lasso_lambda, iters=settings.lasso_iters
        )
    elif classifier == "forest":
        model = classifiers.train_forest(X_train, y_train, n_trees=settings.n_trees, seed=cell_seed)
    else:
        raise ValueError(f"unknown classifier {classifier!r}; valid: {CLASSIFIERS}")
    return classifiers.predict_cls(model, X_test)


def _feature_kind(predictor: str) -> str:
    if predictor == "ae":
        return "pooled"
    if predictor in FEATURE_KINDS:
        return predictor
    raise ValueError(f"unknown predictor {predictor!r}; valid: {PREDICTORS}")


def _check_cells(runs, labels: LabelSet, split: Split, pairs):
    """The usable pairs, each run's row index and warnings naming the
    skipped pairs, after checking that the split and the labels cover the
    runs up to the last evaluation turn.

    A pair (T, T+1) is usable when 1 <= T and T+1 is within every run; the
    others are skipped, and no usable pair at all is an error.
    """
    n_turns = min(run.n_turns for run in runs)
    usable = [(t, e) for t, e in pairs if e == t + 1 and 1 <= t and e <= n_turns]
    skipped = " ".join(f"{t},{e}" for t, e in pairs if (t, e) not in usable)
    if not usable:
        raise ValueError(f"no usable turn pairs among {skipped} for runs with {n_turns} turns")
    warnings = [f"skipped turn pairs {skipped} (runs have {n_turns} turns)"] if skipped else []
    by_id = {run.conversation_id: i for i, run in enumerate(runs)}
    for cid in split.train_ids + split.test_ids:
        if cid not in by_id:
            raise ValidationError(f"split references unknown conversation {cid!r}")
        if cid not in labels.labels:
            raise ValidationError(f"labels missing conversation {cid!r}")
    last_turn = max(e for _, e in usable)
    for cid, vec in labels.labels.items():
        if cid in by_id and len(vec) < last_turn:
            raise ValidationError(f"labels for {cid!r} stop before the last evaluation turn")
    return usable, by_id, warnings


def _evaluate_cell(
    X, by_id, labels: LabelSet, split: Split, predictor, classifier, mode, pair, settings, seed
) -> EvalReport:
    """Fit one classifier on the train rows of X against the found-by-turn-E
    label and score the test rows: one report row and its prediction records.

    X holds one feature row per run; ``by_id`` maps a conversation id to its
    row. The cell seed depends on (seed, T, cutoff) only.
    """
    turn_train, turn_eval = pair
    X_train = X[[by_id[cid] for cid in split.train_ids]]
    y_train = np.array([labels.label_at(cid, turn_eval) for cid in split.train_ids])
    X_test = X[[by_id[cid] for cid in split.test_ids]]
    y_test = np.array([labels.label_at(cid, turn_eval) for cid in split.test_ids])
    preds = _fit_predict(
        classifier, X_train, y_train, X_test, settings, _cell_seed(seed, turn_train, labels.cutoff)
    )
    row = ReportRow(
        predictor=predictor,
        classifier=classifier,
        scenario=labels.scenario,
        mode=mode,
        turn_train=turn_train,
        turn_eval=turn_eval,
        cutoff=labels.cutoff,
        accuracy=accuracy(preds, y_test),
        n_test=len(y_test),
    )
    cell = f"{predictor}|{classifier}|{labels.scenario}|{mode}|{turn_train},{turn_eval}|cutoff{labels.cutoff}"
    return EvalReport(
        rows=[row],
        predictions=[
            PredictionRecord(cell, cid, int(p), int(a))
            for cid, p, a in zip(split.test_ids, preds, y_test)
        ],
    )


def run_turn_pair(
    runs,
    labels: LabelSet,
    predictor: str,
    classifier: str,
    split: Split,
    pairs=DEFAULT_PAIRS,
    settings: EvalSettings = EvalSettings(),
    seed: int = 0,
    mode: str = "multi",
    table: FeatureTable | None = None,
) -> EvalReport:
    """Train and evaluate one classifier per turn pair (T, T+1).

    Multi mode feeds features of turns 1..T; single mode feeds turn T alone.
    Both fit on the train split against the found-by-turn-(T+1) label and
    score the test split on the same label. One report row per pair, plus
    per-instance prediction records for significance testing. Pairs past the
    end of the runs are skipped and named in the report's warnings. Feature
    rows come from ``table``, a fresh one when None; pass one table to every
    call over the same runs to compute each row once.
    """
    if mode not in ("multi", "single"):
        raise ValueError(f"mode must be 'multi' or 'single', got {mode!r}")
    if predictor == "ae" and classifier != "ae-head":
        raise ValueError("the ae predictor implies the ae-head classifier")
    kind = _feature_kind(predictor)
    pairs, by_id, warnings = _check_cells(runs, labels, split, pairs)

    table = FeatureTable() if table is None else table
    needed_turns = sorted({t for pair in pairs for t in (range(1, pair[0] + 1) if mode == "multi" else [pair[0]])})
    blocks = {t: table.block(runs, kind, t, settings.top_n) for t in needed_turns}

    report = EvalReport(warnings=warnings)
    for pair in pairs:
        if mode == "multi":
            X = np.hstack([blocks[t] for t in range(1, pair[0] + 1)])
        else:
            X = blocks[pair[0]]
        report.extend(
            _evaluate_cell(X, by_id, labels, split, predictor, classifier, mode, pair, settings, seed)
        )
    return report


def run_single_turn(
    runs,
    labels: LabelSet,
    predictor: str,
    classifier: str,
    split: Split,
    pairs=DEFAULT_PAIRS,
    settings: EvalSettings = EvalSettings(),
    seed: int = 0,
) -> EvalReport:
    """The single-turn ablation: features come from turn T only."""
    return run_turn_pair(runs, labels, predictor, classifier, split, pairs, settings, seed, mode="single")


def cutoff_sensitivity(
    runs,
    split: Split,
    cutoffs=(1, 20, 100),
    pair: tuple[int, int] = (5, 6),
    settings: EvalSettings = EvalSettings(),
    seed: int = 0,
) -> EvalReport:
    """Rank-cutoff sensitivity of the predictor fed only the top-ranked item.

    For each cutoff the ground truth is recomputed at that cutoff and a fresh
    model is trained on the train turn's top-1 item embedding (single-turn
    protocol). One report row per cutoff.
    """
    X = FeatureTable().block(runs, "top1", pair[0], settings.top_n)
    report = EvalReport()
    for cutoff in cutoffs:
        labels = label_runs(runs, cutoff=cutoff)
        _, by_id, _ = _check_cells(runs, labels, split, [pair])
        report.extend(
            _evaluate_cell(X, by_id, labels, split, "ae-top1", "ae-head", "single", pair, settings, seed)
        )
    return report


def accuracy(preds, actuals) -> float:
    preds = np.asarray(preds)
    actuals = np.asarray(actuals)
    if preds.shape != actuals.shape or preds.size == 0:
        raise ValueError("prediction and actual vectors must align and be non-empty")
    return float(np.mean(preds == actuals))


def mcnemar(preds_a, preds_b, actuals) -> tuple[float, bool]:
    """Continuity-corrected McNemar statistic over the discordant pairs.

    b counts instances a gets right and b wrong, c the reverse; the statistic
    is (|b - c| - 1)^2 / (b + c), defined as 0 when b + c = 0. Significance is
    chi2 >= 3.841459 (p < 0.05, 1 dof). Symmetric in the two predictors.
    """
    preds_a = np.asarray(preds_a)
    preds_b = np.asarray(preds_b)
    actuals = np.asarray(actuals)
    if not (preds_a.shape == preds_b.shape == actuals.shape):
        raise ValueError("prediction vectors and actuals must have equal length")
    correct_a = preds_a == actuals
    correct_b = preds_b == actuals
    b = int(np.sum(correct_a & ~correct_b))
    c = int(np.sum(~correct_a & correct_b))
    if b + c == 0:
        return 0.0, False
    chi2 = (abs(b - c) - 1) ** 2 / (b + c)
    return float(chi2), chi2 >= MCNEMAR_CRITICAL


def write_report(report: EvalReport, path, header_comment: str | None = None) -> None:
    columns = ["predictor", "classifier", "scenario", "mode", "turn_train", "turn_eval",
               "cutoff", "accuracy", "n_test"]
    rows = [
        [row.predictor, row.classifier, row.scenario, row.mode, row.turn_train,
         row.turn_eval, row.cutoff, repr(row.accuracy), row.n_test]
        for row in report.rows
    ]
    write_csv(path, header_comment, [columns] + rows)


def read_report(path) -> list[ReportRow]:
    _, records = read_csv(path, "report")
    return [
        ReportRow(
            predictor=record[0],
            classifier=record[1],
            scenario=record[2],
            mode=record[3],
            turn_train=int(record[4]),
            turn_eval=int(record[5]),
            cutoff=int(record[6]),
            accuracy=float(record[7]),
            n_test=int(record[8]),
        )
        for record in records
    ]


def write_predictions(report: EvalReport, path, header_comment: str | None = None) -> None:
    rows = [[rec.cell_id, rec.conversation_id, rec.predicted, rec.actual] for rec in report.predictions]
    write_csv(path, header_comment, [["cell_id", "conversation_id", "predicted", "actual"]] + rows)


def read_predictions(path) -> list[PredictionRecord]:
    _, records = read_csv(path, "predictions")
    return [PredictionRecord(record[0], record[1], int(record[2]), int(record[3])) for record in records]


def paired_predictions(records_a, records_b) -> dict[str, tuple[list[int], list[int], list[int]]]:
    """Line up two predictors' records cell by cell, for McNemar tests.

    Cells match on the cell id without its predictor and classifier fields
    (``scenario|mode|T,E|cutoffC``). Returns, for each cell both sides hold
    and in the order ``records_a`` first holds them, the predictions of a, of
    b and the ground truth, over the cell's conversations in id order.
    Raises ValidationError when no cell is shared, or a shared cell's
    conversations or ground truth differ between the sides.
    """

    def by_cell(records):
        cells: dict[str, dict[str, PredictionRecord]] = {}
        for rec in records:
            cells.setdefault(rec.cell_id.split("|", 2)[2], {})[rec.conversation_id] = rec
        return cells

    cells_a, cells_b = by_cell(records_a), by_cell(records_b)
    paired = {}
    for cell, ra in cells_a.items():
        rb = cells_b.get(cell)
        if rb is None:
            continue
        if set(ra) != set(rb):
            raise ValidationError(f"cell {cell}: test conversations differ between files")
        cids = sorted(ra)
        for c in cids:
            if ra[c].actual != rb[c].actual:
                raise ValidationError(f"cell {cell}: ground truth differs for {c!r}")
        paired[cell] = (
            [ra[c].predicted for c in cids],
            [rb[c].predicted for c in cids],
            [ra[c].actual for c in cids],
        )
    if not paired:
        raise ValidationError("prediction files share no evaluation cells")
    return paired


def render_grid(rows) -> tuple[list[list], str]:
    """Report rows as an accuracy grid: one section per scenario, one line per
    predictor/classifier/mode/cutoff and one column per turn pair.

    Returns the grid as CSV rows (exact accuracies, empty where a row lacks a
    pair) and as aligned text (three decimals).
    """
    pair_cols = sorted({(r.turn_train, r.turn_eval) for r in rows})
    scenarios = sorted({r.scenario for r in rows})
    grid_csv = [["scenario", "predictor", "classifier", "mode", "cutoff"]
                + [f"{t},{e}" for t, e in pair_cols]]
    text_blocks = []
    for scen in scenarios:
        scen_rows = [r for r in rows if r.scenario == scen]
        keys = sorted({(r.predictor, r.classifier, r.mode, r.cutoff) for r in scen_rows})
        cells = {}
        for r in scen_rows:
            cells[(r.predictor, r.classifier, r.mode, r.cutoff, r.turn_train, r.turn_eval)] = r.accuracy
        label_width = max(
            [len(f"{p}/{c} [{m}] @cutoff{k}") for p, c, m, k in keys] + [len("predictor/classifier")]
        )
        header = f"== scenario: {scen} =="
        lines = [header, "predictor/classifier".ljust(label_width) + "".join(f"{f'{t},{e}':>8}" for t, e in pair_cols)]
        for p, c, m, k in keys:
            label = f"{p}/{c} [{m}] @cutoff{k}"
            row_csv = [scen, p, c, m, k]
            line = label.ljust(label_width)
            for t, e in pair_cols:
                acc = cells.get((p, c, m, k, t, e))
                row_csv.append("" if acc is None else repr(acc))
                line += f"{'' if acc is None else format(acc, '.3f'):>8}"
            grid_csv.append(row_csv)
            lines.append(line)
        text_blocks.append("\n".join(lines))
    return grid_csv, "\n\n".join(text_blocks)
