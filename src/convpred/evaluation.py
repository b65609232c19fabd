"""The experimental protocol: conversation-level splits, per-turn-pair
training and evaluation (the single-turn ablation is its single mode),
rank-cutoff sensitivity, accuracy, McNemar significance between paired
predictors, and the report grid.

A turn pair (T, T+1) trains a fresh classifier on features from turns 1..T
(or turn T alone in single mode) against the found-by-turn-(T+1) label, and
scores it on the held-out conversations. Reports are pure functions of
(runs, labels, settings, seeds): train/test sets never overlap and no test
statistics leak into training (the trainers that standardize do so inside,
on the train rows only).

Every cell of a report goes through one path. ``_check_cells`` checks that
the split and the labels cover the runs and keeps the usable pairs;
``_evaluate`` then fits and scores one (predictor, classifier, scenario,
mode, pair, cutoff) cell per usable pair and builds its report row and
prediction records. It takes several (runs, labels, split, predictor,
classifier, kind) problems at once and, pair by pair, fits the cells of one
row whose train and test matrices have one shape as one stack (see
:mod:`convpred.classifiers`), which gives each cell the model a fit of it
alone gives. ``run_turn_pair`` (multi and single mode, one problem or a
whole grid) and ``cutoff_sensitivity`` (one label set per cutoff) both call
it. Its feature matrices come from
:func:`~convpred.features.build_feature_matrix`, which keeps each turn's row
in its run's array, so every call over the same runs computes each row once;
the forests of one call draw each bootstrap and candidate set of a cell
seed once. A cell is named ``predictor|classifier|scenario|mode|T,E|cutoffC``;
``paired_predictions`` matches cells on the last four fields, and a
trainer's error names its cell.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import autoencoder, classifiers
from .core import ValidationError, check_seed, read_records, round_half_up, write_csv
from .core import parse_bit, parse_cell_id, parse_count, parse_share
from .features import build_feature_matrix
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
    """Disjoint train/test conversation ids: construction refuses an id listed twice."""

    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    stratified: bool
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        listed = set()
        for cid in self.train_ids + self.test_ids:
            if cid in listed:
                raise ValidationError(f"split lists conversation {cid!r} more than once")
            listed.add(cid)


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
    """Per-cell hyperparameters; defaults mirror the shipped protocol. ``ae``, built
    (so checked) from the ``ae_*`` fields, is the one config every AE cell trains with."""

    top_n: int = 100
    ae_epochs: int = 100
    ae_learning_rate: float = 0.01
    ae_hidden_dim: int | None = None
    ae_bottleneck_dim: int | None = None
    lasso_lambda: float = 0.1
    n_trees: int = 100
    ae: autoencoder.AEConfig = field(init=False, repr=False)

    def __post_init__(self):
        # a setting every cell of its trainer shares is an error before any cell runs
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        object.__setattr__(self, "ae", autoencoder.AEConfig(
            self.ae_hidden_dim, self.ae_bottleneck_dim, self.ae_learning_rate, self.ae_epochs))
        if not 0.0 <= self.lasso_lambda < math.inf:
            raise ValueError(f"lasso_lambda must be finite and >= 0, got {self.lasso_lambda}")


def split_conversations(
    ids,
    final_labels: dict[str, int],
    ratio: float = 0.7,
    seed: int = 0,
    stratified: bool = True,
) -> Split:
    """Seeded conversation-level split with |train| = round(ratio * n).

    The ids are sorted before the seeded permutation, so the split depends on
    the set of ids, not on their order. The shuffled ids are allocated by
    largest remainder per label class when stratified (the ratio holds in
    each class up to rounding, the total exactly), and as one class when not
    or when a class has fewer than 2 members (with a warning). A ratio that
    leaves either side empty is an error, and so is a repeated id (see Split).
    """
    ids = sorted(ids)
    n = len(ids)
    if n < 2:
        raise ValueError("need at least 2 conversations to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    n_train = round_half_up(ratio * n)
    if not 0 < n_train < n:
        side = "train" if n_train == 0 else "test"
        raise ValueError(f"split ratio {ratio} leaves the {side} side empty for {n} conversations")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    shuffled = [ids[i] for i in rng.permutation(n)]
    by_class: dict = {None: shuffled}  # a plain split allocates one class
    warnings: tuple[str, ...] = ()
    if stratified:
        by_class = {}
        for cid in shuffled:
            if cid not in final_labels:
                raise ValidationError(f"labels missing conversation {cid!r}")
            by_class.setdefault(final_labels[cid], []).append(cid)
        if any(len(members) < 2 for members in by_class.values()):
            warnings = ("stratification fell back to plain shuffling: a class has < 2 members",)
            by_class, stratified = {None: shuffled}, False
    quotas = {label: ratio * len(members) for label, members in by_class.items()}
    take = {label: int(np.floor(q)) for label, q in quotas.items()}
    leftover = n_train - sum(take.values())
    for label in sorted(quotas, key=lambda c: (-(quotas[c] - take[c]), c)):
        if leftover <= 0:
            break
        take[label] += 1
        leftover -= 1
    train, test = [], []
    for label in sorted(by_class):
        members = by_class[label]
        train.extend(members[: take[label]])
        test.extend(members[take[label] :])
    return Split(tuple(train), tuple(test), stratified, warnings)


def parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    """The turn pairs (T, T+1) of a train-turn range "T" or "T-U", 1 <= T <= U."""
    lo, dash, hi = text.partition("-")
    try:
        start, end = int(lo), int(hi if dash else lo)
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


def _fit_predict(classifier, X_train, y_train, X_test, settings: EvalSettings, cell_seeds,
                 streams: dict) -> np.ndarray:
    """Fit a stack of (P, n, F) train rows and predict its (P, m, F) test rows: (P, m) labels."""
    if classifier == "ae-head":
        fits = autoencoder.train(X_train, y_train, settings.ae, cell_seeds)
        return np.array([autoencoder.predict(model, X) for (model, _), X in zip(fits, X_test)])
    if classifier == "forest":
        forest = classifiers.train_forest(
            X_train, y_train, cell_seeds, n_trees=settings.n_trees, streams=streams
        )
        return classifiers.predict_cls(forest, X_test)
    if classifier == "logreg":
        models = classifiers.train_logistic(X_train, y_train)
    elif classifier == "lasso":
        models = classifiers.train_lasso(X_train, y_train, lam=settings.lasso_lambda)
    else:
        raise ValueError(f"unknown classifier {classifier!r}; valid: {CLASSIFIERS}")
    return np.array([classifiers.predict_cls(model, X) for model, X in zip(models, X_test)])


def _feature_kind(predictor: str, classifier: str) -> str:
    if predictor not in PREDICTORS:
        raise ValueError(f"unknown predictor {predictor!r}; valid: {PREDICTORS}")
    if predictor == "ae" and classifier != "ae-head":
        raise ValueError("the ae predictor implies the ae-head classifier")
    return "pooled" if predictor == "ae" else predictor


def _check_cells(runs, labels: LabelSet, split: Split, pairs):
    """The usable pairs, each run's row index and warnings naming the
    skipped pairs, after checking that every id of the split names a run
    and has labels up to the last evaluation turn. (The split itself lists
    each id once, on one side.)

    A pair (T, T+1) is usable when 1 <= T and T+1 is within every run; the
    others are skipped, and no runs or no usable pair at all is an error.
    """
    if not runs:
        raise ValueError("no runs to evaluate")
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


# one cell of ``_evaluate``: the report its row goes to, its labels (scenario and
# cutoff) and test ids, its id and seed, and its train and test rows and labels
_Cell = namedtuple("_Cell", "report labels test_ids cell_id seed X_train X_test y_train y_test")


def _evaluate(problems, pairs, mode, settings, seed) -> EvalReport:
    """One cell per (runs, labels, split, predictor, classifier, kind) problem
    and usable pair (T, E): fit the classifier on the train rows of the
    turn-T feature matrix against the found-by-turn-E label and score the
    test rows, giving a report row and its prediction records. The report
    lists each problem's cells in turn.

    The pairs run in turn. At each pair, the cells of one (predictor,
    classifier) whose matrices have one shape fit as one stack, the stacks
    in order of first appearance and each stack's cells in problem order.
    The cell seed depends on (seed, T, cutoff) only, and the forests of a
    pair share one draw store, whose draws do not depend on the fit order. A
    trainer's ValueError is raised again with the id of its cell in front
    (the stack's first cell when the error names no problem), so the cell
    named is one of the first pair at which any problem fails.
    """
    checked = [_check_cells(runs, labels, split, pairs) for runs, labels, split, *_ in problems]
    reports = [EvalReport(warnings=warnings) for _, _, warnings in checked]
    for turn_train, turn_eval in pairs:
        stacks: dict[tuple, list[_Cell]] = {}
        streams: dict = {}  # a cell seed names its pair, so no other pair's forest shares a key
        for i, (runs, labels, split, predictor, classifier, kind) in enumerate(problems):
            usable, by_id, _ = checked[i]
            if (turn_train, turn_eval) not in usable:
                continue
            X = build_feature_matrix(runs, kind, turn_train, settings.top_n, mode).values
            cell = _Cell(
                reports[i], labels, split.test_ids,
                f"{predictor}|{classifier}|{labels.scenario}|{mode}|"
                f"{turn_train},{turn_eval}|cutoff{labels.cutoff}",
                _cell_seed(seed, turn_train, labels.cutoff),
                X[[by_id[cid] for cid in split.train_ids]],
                X[[by_id[cid] for cid in split.test_ids]],
                [labels.label_at(cid, turn_eval) for cid in split.train_ids],
                np.array([labels.label_at(cid, turn_eval) for cid in split.test_ids]),
            )
            key = (predictor, classifier, cell.X_train.shape, cell.X_test.shape)
            stacks.setdefault(key, []).append(cell)
        for (predictor, classifier, _, _), stack in stacks.items():
            try:
                preds = _fit_predict(
                    classifier, np.stack([c.X_train for c in stack]),
                    np.array([c.y_train for c in stack]), np.stack([c.X_test for c in stack]),
                    settings, [c.seed for c in stack], streams,
                )
            except ValueError as exc:
                raise ValueError(f"{stack[getattr(exc, 'problem', 0)].cell_id}: {exc}") from exc
            for cell, cell_preds in zip(stack, preds):
                cell.report.rows.append(ReportRow(
                    predictor, classifier, cell.labels.scenario, mode, turn_train, turn_eval,
                    cell.labels.cutoff, accuracy(cell_preds, cell.y_test), len(cell.y_test),
                ))
                cell.report.predictions.extend(
                    PredictionRecord(cell.cell_id, cid, int(p), int(a))
                    for cid, p, a in zip(cell.test_ids, cell_preds, cell.y_test)
                )
    report = EvalReport()
    for part in reports:
        report.extend(part)
    return report


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
) -> EvalReport:
    """Train and evaluate one classifier per turn pair (T, T+1).

    Multi mode feeds features of turns 1..T; single mode feeds turn T alone.
    Both fit on the train split against the found-by-turn-(T+1) label and
    score the test split on the same label. One report row per pair, plus
    per-instance prediction records for significance testing. Pairs past the
    end of the runs are skipped and named in the report's warnings.

    ``runs``, ``labels``, ``predictor``, ``classifier`` and ``split`` may
    instead be equal-length sequences, one entry per problem, such as every
    (scenario, grid row) of a protocol grid. Each grid row's cells of a pair
    are fitted together, forests of one key share their draws, and the
    report lists each problem's rows in turn. Unequal lengths raise
    ValueError, as does another mode (at the first cell's features).
    """
    if isinstance(labels, LabelSet):
        runs, labels, predictor, classifier, split = [runs], [labels], [predictor], [classifier], [split]
    zipped = list(zip(runs, labels, predictor, classifier, split, strict=True))
    if not zipped:
        raise ValueError("no problems to evaluate: runs, labels, predictor, classifier and "
                         "split are empty sequences")
    problems = [(r, lab, s, p, c, _feature_kind(p, c)) for r, lab, p, c, s in zipped]
    return _evaluate(problems, pairs, mode, settings, seed)


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
    protocol); the cutoffs' models train as one stack. One report row per
    cutoff. A cutoff given twice raises ValueError.
    """
    cutoffs = tuple(cutoffs)
    if not cutoffs:
        raise ValueError("no cutoffs to evaluate")
    repeated = next((c for i, c in enumerate(cutoffs) if c in cutoffs[:i]), None)
    if repeated is not None:
        raise ValueError(f"cutoff {repeated} is given more than once")
    problems = [(runs, label_runs(runs, cutoff=cutoff), split, "ae-top1", "ae-head", "top1")
                for cutoff in cutoffs]
    return _evaluate(problems, [pair], "single", settings, seed)


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


# each record file's columns, in file order, and the parser of each column's fields
_REPORT_COLUMNS = {"predictor": str, "classifier": str, "scenario": str, "mode": str,
                   "turn_train": parse_count, "turn_eval": parse_count, "cutoff": parse_count,
                   "accuracy": parse_share, "n_test": parse_count}
_PREDICTION_COLUMNS = {"cell_id": parse_cell_id, "conversation_id": str, "predicted": parse_bit,
                       "actual": parse_bit}


def write_report(report: EvalReport, path, header_comment: str | None = None) -> None:
    rows = [[getattr(row, column) for column in _REPORT_COLUMNS] for row in report.rows]
    write_csv(path, header_comment, [list(_REPORT_COLUMNS)] + rows)


def read_report(path) -> list[ReportRow]:
    return [ReportRow(*values) for values in read_records(path, "report", _REPORT_COLUMNS)]


def write_predictions(report: EvalReport, path, header_comment: str | None = None) -> None:
    rows = [[getattr(rec, column) for column in _PREDICTION_COLUMNS] for rec in report.predictions]
    write_csv(path, header_comment, [list(_PREDICTION_COLUMNS)] + rows)


def read_predictions(path) -> list[PredictionRecord]:
    return [PredictionRecord(*values)
            for values in read_records(path, "predictions", _PREDICTION_COLUMNS)]


def paired_predictions(records_a, records_b) -> dict[str, tuple[list[int], list[int], list[int]]]:
    """Line up two predictors' records cell by cell, for McNemar tests.

    Cells match on the cell id without its predictor and classifier fields
    (``scenario|mode|T,E|cutoffC``). Returns, for each cell both sides hold
    and in the order ``records_a`` first holds them, the predictions of a, of
    b and the ground truth, over the cell's conversations in id order.
    Raises ValidationError when no cell is shared, a shared cell's
    conversations or ground truth differ between the sides, or one side
    holds two records of one conversation in one cell (as a file of several
    grid rows does).
    """

    def by_cell(records, side):
        cells: dict[str, dict[str, PredictionRecord]] = {}
        for rec in records:
            cell = rec.cell_id.split("|", 2)[2]
            held = cells.setdefault(cell, {})
            if rec.conversation_id in held:
                raise ValidationError(
                    f"cell {cell}: side {side} has two records for {rec.conversation_id!r}"
                )
            held[rec.conversation_id] = rec
        return cells

    cells_a, cells_b = by_cell(records_a, "a"), by_cell(records_b, "b")
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
    pair) and as aligned text (three decimals). Raises ValidationError naming
    the cell when two rows give one cell.
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
            key = (r.predictor, r.classifier, r.mode, r.cutoff, r.turn_train, r.turn_eval)
            if key in cells:
                raise ValidationError(f"two report rows give cell {r.predictor}|{r.classifier}|"
                                      f"{scen}|{r.mode}|{r.turn_train},{r.turn_eval}|cutoff{r.cutoff}")
            cells[key] = r.accuracy
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
