"""Baseline classifiers over feature rows: logistic regression, an L1-shrinkage
linear classifier (squared loss on {0,1} targets, thresholded at 0.5), and a
random forest. All are hand-rolled on numpy so behavior is exact and seeded.
Every trainer, the autoencoder's included, checks its input with
:func:`check_train_input`. Three of them standardize it with
:func:`standardize_fit`: logistic regression, the L1 classifier and the
autoencoder. The forest does not: its splits depend only on the order of
each column's values.

Every trainer takes a stack of P problems of equal row count and width, X of
shape (P, n, F) and y of shape (P, n), and fits them in one pass; the
seeded ones, the forest and the autoencoder, take one seed per problem.
Each problem's model is bit for bit the one a fit of that problem alone
gives. The linear trainers return a list of models, one per problem; a
:class:`Forest` holds the trees of every problem of its stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import check_seed

__all__ = [
    "LinearModel",
    "Forest",
    "ProblemError",
    "check_train_input",
    "standardize_fit",
    "standardize",
    "train_logistic",
    "train_lasso",
    "train_forest",
    "predict_cls",
]


@dataclass(eq=False)
class LinearModel:
    """A linear classifier over standardized columns.

    ``kind`` is "logistic" (sigmoid of the linear score, threshold 0.5, the
    boundary itself mapping to label 1) or "lasso" (raw linear output
    thresholded at 0.5). ``history`` records the training objective: per
    iteration for logistic, per coordinate-descent sweep for lasso.
    ``nonzero`` records the lasso sparsity pattern.
    """

    kind: str
    weights: np.ndarray
    intercept: float
    input_mean: np.ndarray
    input_scale: np.ndarray
    nonzero: tuple[int, ...] = ()
    history: tuple[float, ...] = ()


@dataclass(eq=False)
class Forest:
    """Every tree of a forest as parallel node arrays, the layout of scikit-learn's ``tree_``.

    Tree t of problem p starts at node ``roots[p, t]``: the forests of a
    stack of P problems share the node arrays. Node i is a leaf when
    ``feature[i]`` is -1; otherwise rows with ``X[:, feature[i]] <
    threshold[i]`` go to node ``left[i]`` and the rest, NaN included, to
    ``right[i]``. ``counts[i]`` holds the node's (label 0, label 1) bootstrap
    counts. A leaf predicts the larger count, an equal count giving 0, and
    the forest the majority of its trees' votes, an exact tie giving 0.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    n_features: int

    @property
    def trees(self) -> list[SimpleNamespace]:
        """Each tree's root in tree order, its nodes linked by ``is_leaf``, ``left`` and
        ``right`` (None at a leaf), for the one caller, ``perfbench/tracing.tree_nodes``."""
        nodes = [SimpleNamespace(is_leaf=f < 0, left=None, right=None) for f in self.feature.tolist()]
        for node, left, right in zip(nodes, self.left.tolist(), self.right.tolist()):
            if not node.is_leaf:
                node.left, node.right = nodes[left], nodes[right]
        return [nodes[root] for root in self.roots.ravel().tolist()]


LOGISTIC_LR = 0.1  # gradient-descent step size on standardized columns
LOGISTIC_ITERS = 500
LASSO_TOL = 1e-12  # a sweep moving no weight by this much ends coordinate descent


class ProblemError(ValueError):
    """A trainer's error about one problem of a stack; ``problem`` is its index."""

    def __init__(self, problem: int, message: str):
        super().__init__(message)
        self.problem = problem


def check_train_input(X, y, minimum: int = 2, seeds=None) -> tuple[np.ndarray, np.ndarray]:
    """A stack of P training problems as float64 rows (P, n, F) and int64 labels (P, n).

    Raises ValueError unless X is such a stack with at least ``minimum``
    rows per problem, one label per row and every label 0 or 1, and, for
    the seeded trainers, ``seeds`` a sequence of one seed per problem, each
    a non-negative ``int`` or numpy integer (a bool is not one).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or 0 in X.shape[:-1]:
        raise ValueError(f"training data must be a non-empty (P, n, F) stack, got shape {X.shape}")
    if seeds is not None:
        if not np.iterable(seeds) or any(isinstance(s, (list, tuple, np.ndarray)) for s in seeds):
            raise ValueError(f"seeds {seeds!r}, not one per problem, for a stack of {len(X)} problems")
        if len(seeds) != len(X):
            raise ValueError(f"{len(seeds)} seeds for a stack of {len(X)} problems")
        for seed in seeds:
            check_seed(seed)
    if X.shape[1] < minimum:
        raise ValueError(f"training needs at least {minimum} sample(s)")
    y = np.asarray(y)
    if y.shape != X.shape[:-1]:
        raise ValueError("labels must align with rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return X, y.astype(np.int64)


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(standardized X, column means, column scales); a constant column gets scale 1.

    Over a stack (P, n, F) the means and scales are (P, F), each problem's
    own. A column whose spread is not finite (a NaN or infinite value, or
    values whose squares overflow) raises :class:`ProblemError`, naming the
    column and, through ``problem``, the first problem of the stack that
    holds one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=-2)
        scale = X.std(axis=-2)
    bad = ~np.isfinite(scale)
    if bad.any():
        problem, column = np.argwhere(bad.reshape(-1, X.shape[-1]))[0]
        value = scale.reshape(-1, X.shape[-1])[problem, column]
        raise ProblemError(int(problem), f"column {column} has no finite spread (std {value})")
    scale[scale == 0.0] = 1.0
    return (X - mean[..., None, :]) / scale[..., None, :], mean, scale


def standardize(X, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """One model's raw (m, F) rows in its units; F must be the training width."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(mean):
        raise ValueError(f"feature shape {X.shape} does not match training width {len(mean)}")
    return (X - mean) / scale


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def train_logistic(X, y) -> list[LinearModel]:
    """Full-batch gradient descent on the mean negative log-likelihood.

    Deterministic: zero initialization, no penalty, LOGISTIC_ITERS steps of
    size LOGISTIC_LR. Columns are standardized internally with training
    statistics so the fixed step size is safe across feature scales. The
    problems of a stack take each step together.
    """
    X, y = check_train_input(X, y)
    Xs, mean, scale = standardize_fit(X)
    n = y.shape[1]
    target = y.astype(np.float64)
    w = np.zeros((len(y), Xs.shape[2]))
    b = np.zeros(len(y))
    z = np.empty((LOGISTIC_ITERS, *y.shape))  # each step's linear scores, for the history
    Xs_T = Xs.swapaxes(1, 2)
    for step in range(LOGISTIC_ITERS):
        np.add(np.matmul(Xs, w[..., None])[..., 0], b[:, None], out=z[step])
        resid = _sigmoid(z[step]) - target
        w -= LOGISTIC_LR * np.matmul(Xs_T, resid[..., None])[..., 0] / n
        b -= LOGISTIC_LR * (np.add.reduce(resid, axis=1) / n)
    # mean -[y log p + (1-y) log(1-p)] per step via the numerically stable softplus form
    history = (np.logaddexp(0.0, z) - y * z).mean(axis=2)
    return [
        LinearModel("logistic", w[p], float(b[p]), mean[p], scale[p],
                    history=tuple(history[:, p].tolist()))
        for p in range(len(y))
    ]


def train_lasso(X, y, lam: float = 0.1, iters: int = 1000) -> list[LinearModel]:
    """Coordinate descent on 0.5 * mean squared error + lam * sum |w_i|.

    Targets are the {0,1} labels; the intercept is unpenalized and columns are
    standardized internally, so each coordinate update is the exact soft
    threshold w_j = S(rho_j, lam). The objective is non-increasing across
    sweeps; ``iters`` bounds the number of full sweeps, and a sweep that
    moves no weight by LASSO_TOL or more is the last. The problems of a
    stack are standardized together and descend one after another.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    X, y = check_train_input(X, y)
    Xs, mean, scale = standardize_fit(X)
    return [_lasso(Xs[p], y[p], mean[p], scale[p], lam, iters) for p in range(len(y))]


def _lasso(Xs, y, mean, scale, lam: float, iters: int) -> LinearModel:
    n, p = Xs.shape
    yf = y.astype(np.float64)
    w = np.zeros(p)
    b = float(yf.mean())
    col_sq = (Xs * Xs).sum(axis=0) / n  # 1.0 for live columns, 0.0 for constant ones
    residual = yf - b  # y - b - Xs @ w, maintained incrementally
    history = [_lasso_objective(residual, w, lam)]
    for _ in range(iters):
        w_before = w.copy()
        b_shift = float(residual.mean())
        b += b_shift
        residual -= b_shift
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = w[j]
            rho = float(Xs[:, j] @ residual) / n + col_sq[j] * old
            new = math.copysign(max(abs(rho) - lam, 0.0), rho) / col_sq[j]
            if new != old:
                residual -= (new - old) * Xs[:, j]
                w[j] = new
        history.append(_lasso_objective(residual, w, lam))
        if np.max(np.abs(w - w_before)) < LASSO_TOL:
            break
    nonzero = tuple(int(j) for j in np.nonzero(w)[0])
    return LinearModel("lasso", w, b, mean, scale, nonzero=nonzero, history=tuple(history))


def _lasso_objective(residual: np.ndarray, w: np.ndarray, lam: float) -> float:
    return float(0.5 * (residual * residual).mean() + lam * np.abs(w).sum())


@dataclass(eq=False)
class _SortedColumns:
    """Each training column's row order, stably sorted by value (NaN last).

    The columns of a stack (P, n, F) are listed problem by problem: column
    ``p * F + f`` is problem p's column f.
    """

    rows: np.ndarray  # (F, n) row indices
    values: np.ndarray  # (F, n) the column's values in that order
    labels: np.ndarray  # (F, n) the rows' labels in that order
    step: np.ndarray  # (F, n - 1) whether a value is below the next one
    n_valued: np.ndarray  # (F,) non-NaN values per column

    @classmethod
    def of(cls, columns: np.ndarray, labels: np.ndarray) -> "_SortedColumns":
        """From (F, n) columns and each column's (F, n) row labels."""
        rows = np.argsort(columns, axis=1, kind="stable")
        values = np.take_along_axis(columns, rows, axis=1)
        return cls(rows, values, np.take_along_axis(labels, rows, axis=1),
                   values[:, :-1] < values[:, 1:], (~np.isnan(values)).sum(axis=1))


def _best_splits(cols: _SortedColumns, weights: np.ndarray, candidates: np.ndarray):
    """Lowest weighted-Gini split of each node: (column, threshold), column -1 if none.

    ``weights`` (S, n) holds each node's bootstrap multiplicity per training
    row and ``candidates`` (S, k) its candidate columns of ``cols``, in draw
    order. A cut lies between two consecutive distinct values of the node's
    rows; the first candidate whose lowest impurity is lowest wins, then its first
    lowest cut. With ``lower`` and ``upper`` the node's values on either
    side of that cut, the threshold is their midpoint ``m`` when
    ``lower < m <= upper`` and ``upper`` otherwise (a -inf, overflowing or
    rounded midpoint), so every split sends weight both ways. Rows the
    node does not hold weigh 0 in each column's sort order, so a cut
    between two of the node's values appears at every step of the full
    column between them, all scoring alike; the first one stands for it.
    """
    node = np.arange(len(weights))
    w = weights[node[:, None, None], cols.rows[candidates]]  # (S, k, n) in each column's order
    seen = np.cumsum(w, axis=-1)
    ones = np.cumsum(w * cols.labels[candidates], axis=-1)
    # a cut needs some of the node's weight below it and some valued weight above
    valued = np.take_along_axis(seen, cols.n_valued[candidates][..., None] - 1, axis=-1)
    below = seen[..., :-1]
    cuts = cols.step[candidates] & (below > 0) & (below < valued)
    n = np.broadcast_to(seen[..., -1:], below.shape)[cuts]
    n_left = below[cuts].astype(np.float64)
    n_right = n - n_left
    left_ones = ones[..., :-1][cuts]
    right_ones = np.broadcast_to(ones[..., -1:], below.shape)[cuts] - left_ones
    gini_left = 1.0 - (left_ones / n_left) ** 2 - (1.0 - left_ones / n_left) ** 2
    gini_right = 1.0 - (right_ones / n_right) ** 2 - (1.0 - right_ones / n_right) ** 2
    weighted = np.full(below.shape, np.inf)
    weighted[cuts] = (n_left * gini_left + n_right * gini_right) / n
    cut = weighted.argmin(axis=-1)  # (S, k)
    lowest = np.take_along_axis(weighted, cut[..., None], axis=-1)[..., 0]
    best = lowest.argmin(axis=1)
    feature = candidates[node, best]
    at = cut[node, best]
    # the value above the cut is the node's next held row in that column
    above = np.argmax((w[node, best] > 0) & (np.arange(w.shape[-1]) > at[:, None]), axis=1)
    lower, upper = cols.values[feature, at], cols.values[feature, above]
    with np.errstate(invalid="ignore", over="ignore"):  # -inf + inf is NaN; a sum can overflow
        mid = 0.5 * (lower + upper)
        threshold = np.where((lower < mid) & (mid <= upper), mid, upper)
    return np.where(lowest[node, best] < np.inf, feature, -1), threshold


def _class_counts(weights: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Float (count of label 0, count of label 1) per row of multiplicities and its row labels."""
    ones = np.einsum("ij,ij->i", weights, labels)
    return np.stack([weights.sum(axis=-1) - ones, ones], axis=-1).astype(np.float64)


class _Substreams:
    """One forest key's trees: each tree's RNG, bootstrap and candidate draws so far.

    A forest's bootstrap and each tree's j-th candidate draw depend only on
    its key (seed, n_trees, n_rows, n_features), not on X or y: the draws of
    a tree are a prefix of one fixed stream. So forests of one key share one
    instance, and ``rng.choice`` runs only past the longest prefix an earlier
    forest of the key used. ``waves[j][t]`` is tree t's j-th candidate draw,
    -1 until drawn.
    """

    def __init__(self, seed: int, n_trees: int, n_rows: int, n_features: int):
        self.n_features = n_features
        self.n_candidates = max(1, math.ceil(math.sqrt(n_features)))
        self.rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_trees)]
        self.weights = np.stack([
            np.bincount(rng.integers(0, n_rows, size=n_rows), minlength=n_rows) for rng in self.rngs
        ])
        self.weights.flags.writeable = False
        self.waves: list[np.ndarray] = []

    def take(self, trees: np.ndarray, wave: int) -> np.ndarray:
        """Each listed tree's draw number ``wave``, for a non-empty ``trees``.

        A tree pops one node a wave until it is done, so its j-th draw is
        taken in wave j, and a forest reaches wave j only after waves 0..j-1.
        A draw that no earlier forest of the key made is drawn now.
        """
        if wave == len(self.waves):
            self.waves.append(np.full((len(self.rngs), self.n_candidates), -1, dtype=np.int64))
        draws = self.waves[wave]
        for t in trees[draws[:, 0][trees] < 0].tolist():
            draws[t] = self.rngs[t].choice(self.n_features, size=self.n_candidates, replace=False)
        return draws[trees]


def train_forest(X, y, seeds, n_trees: int = 100, streams: dict | None = None) -> Forest:
    """Bootstrap-aggregated Gini trees over ceil(sqrt(F)) feature candidates per split.

    ``seeds`` gives one seed per problem of the (P, n, F) stack. Trees grow
    until pure or down to fewer than 2 samples; everything is deterministic
    given the seed, with one substream per tree. ``streams`` maps each key
    to its :class:`_Substreams` (a fresh dict when None), so forests trained
    through one dict share the draws of their key, and problems of one seed
    share their key's substreams.
    All trees, of every problem, grow together in waves. ``node_of[t, i]``
    is the node of tree slot t that training row i reaches, and a node's
    weights are its tree's bootstrap multiplicities of the rows it holds. A
    node is open while it holds both labels and is not split. A split
    numbers its right child before its left one, so a tree's highest-numbered
    open node is the top of its depth-first stack (left child first). In each
    wave every tree with an open node draws that node's candidate features,
    one batched search scores every such node, and each split moves its rows
    to its children. Nodes are numbered as they are made, the roots first;
    each wave's splits are collected and written into the forest's arrays
    after the loop. A problem's own nodes come in the order a forest of it
    alone numbers them.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    X, y = check_train_input(X, y, minimum=1, seeds=seeds)
    n_problems, n, n_features = X.shape
    streams = {} if streams is None else streams
    for key in {(int(s), n_trees, n, n_features) for s in seeds} - streams.keys():
        streams[key] = _Substreams(*key)
    substreams = [streams[int(s), n_trees, n, n_features] for s in seeds]
    # column p * n_features + f is problem p's column f; tree slot p * n_trees + t its tree t
    columns = X.swapaxes(1, 2).reshape(n_problems * n_features, n)
    cols = _SortedColumns.of(columns, np.repeat(y, n_features, axis=0))
    n_slots = n_problems * n_trees
    slot_labels = np.repeat(y, n_trees, axis=0)
    first_slot = np.arange(n_problems + 1) * n_trees
    boot = np.concatenate([sub.weights for sub in substreams])
    counts = [_class_counts(boot, slot_labels)]  # class counts of the nodes made, in node order
    splits = []  # per wave: (nodes, column, threshold, first right child)
    node_of = np.repeat(np.arange(n_slots), n).reshape(n_slots, n)
    is_open = counts[0].all(axis=1)
    n_nodes, wave = n_slots, 0
    while is_open.any():
        top = np.where(is_open[node_of], node_of, -1).max(axis=1)  # each tree's highest open node
        growing = np.flatnonzero(top >= 0)
        nodes = top[growing]
        is_open[nodes] = False
        held = node_of[growing] == nodes[:, None]
        weights = boot[growing] * held
        # in every problem of a key, tree t's draw of this wave is its draw
        # number ``wave``: the first problem to take it draws it
        bounds = np.searchsorted(growing, first_slot)
        candidates = np.concatenate([
            sub.take(growing[lo:hi] - first_slot[p], wave) + p * n_features
            for p, (sub, lo, hi) in enumerate(zip(substreams, bounds, bounds[1:])) if lo < hi
        ])
        column, threshold = _best_splits(cols, weights, candidates)
        split = np.flatnonzero(column >= 0)  # the rest are leaves
        m, tree = len(split), growing[split]
        column, threshold, weights, held = column[split], threshold[split], weights[split], held[split]
        goes_left = columns[column] < threshold[:, None]
        left = weights * goes_left
        counts.append(_class_counts(np.concatenate([weights - left, left]),  # rights, then lefts
                                    np.tile(slot_labels[tree], (2, 1))))
        is_open = np.concatenate([is_open, counts[-1].all(axis=1)])
        right = n_nodes + np.arange(m)[:, None]
        node_of[tree] = np.where(held, right + m * goes_left, node_of[tree])
        splits.append((nodes[split], column, threshold, n_nodes))
        n_nodes += 2 * m
        wave += 1
    forest = Forest(
        roots=np.arange(n_slots).reshape(n_problems, n_trees),
        feature=np.full(n_nodes, -1),
        threshold=np.zeros(n_nodes),
        left=np.full(n_nodes, -1),
        right=np.full(n_nodes, -1),
        counts=np.concatenate(counts),
        n_features=n_features,
    )
    for nodes, column, threshold, first in splits:
        forest.feature[nodes], forest.threshold[nodes] = column % n_features, threshold
        forest.right[nodes] = first + np.arange(len(nodes))
        forest.left[nodes] = forest.right[nodes] + len(nodes)
    return forest


def _forest_votes(roots: np.ndarray, forest: Forest, X: np.ndarray) -> np.ndarray:
    """Label 1 votes per row of each problem, for (P, n_trees) roots and (P, m, F) rows.

    Every (tree, row) pair walks down one level per step.
    """
    n_problems, m, _ = X.shape
    n_trees = roots.shape[1]
    node = np.repeat(roots, m)
    row = np.tile(np.arange(m), roots.size) + np.repeat(np.arange(n_problems) * m, n_trees * m)
    X = X.reshape(n_problems * m, -1)
    walking = np.flatnonzero(forest.feature[node] >= 0)
    while walking.size:
        at = node[walking]
        goes_left = X[row[walking], forest.feature[at]] < forest.threshold[at]  # NaN goes right
        node[walking] = np.where(goes_left, forest.left[at], forest.right[at])
        walking = walking[forest.feature[node[walking]] >= 0]
    leaf_votes = forest.counts[node, 1] > forest.counts[node, 0]  # equal counts resolve to 0
    return leaf_votes.reshape(n_problems, n_trees, m).sum(axis=1)


def predict_cls(model, X) -> np.ndarray:
    """Predicted labels per row; see LinearModel / Forest for the tie rules.

    A linear model predicts its (m, F) rows, giving (m,) labels; a forest of
    a stack of P problems predicts a stack of P row sets, (P, m, F) rows
    giving (P, m) labels.
    """
    if isinstance(model, LinearModel):
        z = standardize(X, model.input_mean, model.input_scale) @ model.weights + model.intercept
        if model.kind == "logistic":
            return (_sigmoid(z) >= 0.5).astype(np.int64)
        return (z >= 0.5).astype(np.int64)
    if isinstance(model, Forest):
        X = np.asarray(X, dtype=np.float64)
        n_problems, n_trees = model.roots.shape
        if X.ndim != 3 or len(X) != n_problems or X.shape[2] != model.n_features:
            raise ValueError(f"feature shape {X.shape} does not match a stack of {n_problems} "
                             f"forests of training width {model.n_features}")
        return (_forest_votes(model.roots, model, X) * 2 > n_trees).astype(np.int64)  # ties go to 0
    raise TypeError(f"unsupported model type {type(model).__name__}")
