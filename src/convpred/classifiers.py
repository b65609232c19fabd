"""Baseline classifiers over feature rows: logistic regression, an L1-shrinkage
linear classifier (squared loss on {0,1} targets, thresholded at 0.5), and a
random forest. All are hand-rolled on numpy so behavior is exact and seeded.
Every trainer, the autoencoder's included, checks its input with
:func:`check_train_input`. Three of them standardize it with
:func:`standardize_fit`: logistic regression, the L1 classifier and the
autoencoder. The forest does not: its splits depend only on the order of
each column's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearModel",
    "TreeNode",
    "Forest",
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
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (class counts)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None


@dataclass(eq=False)
class Forest:
    trees: list[TreeNode]
    n_features: int


LASSO_TOL = 1e-12  # a sweep moving no weight by this much ends coordinate descent
EMPTY_SPLIT_LIMIT = 1000  # splits in a row that leave one child empty before a tree is stuck


def _as_rows(X, width: int | None = None) -> np.ndarray:
    """X as float64 rows (a 1-D X is one column), ``width`` columns wide if given."""
    X = np.asarray(X, dtype=np.float64)
    X = X[:, None] if X.ndim == 1 else X
    if width is not None and (X.ndim != 2 or X.shape[1] != width):
        raise ValueError(f"feature shape {X.shape} does not match training width {width}")
    return X


def check_train_input(X, y, minimum: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Training rows as a float64 matrix (a 1-D X is one column) and labels as int64.

    Raises ValueError unless there are at least ``minimum`` rows, one label
    per row and every label is 0 or 1.
    """
    X = _as_rows(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training data must be a non-empty 2-D array")
    if X.shape[0] < minimum:
        raise ValueError(f"training needs at least {minimum} sample(s)")
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError("labels must align with rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return X, y.astype(np.int64)


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(standardized X, column means, column scales); a constant column gets scale 1."""
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    return (X - mean) / scale, mean, scale


def standardize(X, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Raw rows in the units of a fitted model; their width must be the training width."""
    return (_as_rows(X, len(mean)) - mean) / scale


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_logistic(X, y, lr: float = 0.1, iters: int = 500) -> LinearModel:
    """Full-batch gradient descent on the mean negative log-likelihood.

    Deterministic: zero initialization, no penalty. Columns are standardized
    internally with training statistics so the fixed step size is safe across
    feature scales.
    """
    X, y = check_train_input(X, y)
    Xs, mean, scale = standardize_fit(X)
    n = len(y)
    w = np.zeros(Xs.shape[1])
    b = 0.0
    history = []
    for _ in range(iters):
        z = Xs @ w + b
        p = _sigmoid(z)
        history.append(_logistic_nll(z, y))
        resid = p - y
        w -= lr * (Xs.T @ resid) / n
        b -= lr * float(resid.mean())
    return LinearModel("logistic", w, b, mean, scale, history=tuple(history))


def _logistic_nll(z: np.ndarray, y: np.ndarray) -> float:
    # mean -[y log p + (1-y) log(1-p)] via the numerically stable softplus form
    return float((np.logaddexp(0.0, z) - y * z).mean())


def train_lasso(X, y, lam: float = 0.1, iters: int = 1000) -> LinearModel:
    """Coordinate descent on 0.5 * mean squared error + lam * sum |w_i|.

    Targets are the {0,1} labels; the intercept is unpenalized and columns are
    standardized internally, so each coordinate update is the exact soft
    threshold w_j = S(rho_j, lam). The objective is non-increasing across
    sweeps; ``iters`` bounds the number of full sweeps, and a sweep that
    moves no weight by LASSO_TOL or more is the last.
    """
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    X, y = check_train_input(X, y)
    Xs, mean, scale = standardize_fit(X)
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
    """Each training column's row order, stably sorted by value (NaN last)."""

    rows: np.ndarray  # (F, n) row indices
    values: np.ndarray  # (F, n) the column's values in that order
    labels: np.ndarray  # (F, n) the rows' labels in that order
    step: np.ndarray  # (F, n - 1) whether a value is below the next one
    n_valued: np.ndarray  # (F,) non-NaN values per column

    @classmethod
    def of(cls, X: np.ndarray, y: np.ndarray) -> "_SortedColumns":
        rows = np.argsort(X.T, axis=1, kind="stable")
        values = np.take_along_axis(X.T, rows, axis=1)
        return cls(rows, values, y[rows], values[:, :-1] < values[:, 1:],
                   (~np.isnan(values)).sum(axis=1))


def _best_splits(cols: _SortedColumns, weights: np.ndarray, candidates: np.ndarray):
    """Lowest weighted-Gini split of each node: (feature, threshold), feature -1 if none.

    ``weights`` (S, n) holds each node's bootstrap multiplicity per training
    row and ``candidates`` (S, k) its candidate features, in draw order. A
    cut lies between two consecutive distinct values of the node's rows; the
    first candidate whose lowest impurity is lowest wins, then its first
    lowest cut, and the threshold is the midpoint of the values on either
    side of that cut. Rows the node does not hold weigh 0 in each column's
    sort order, so a cut between two of the node's values appears at every
    step of the full column between them, all scoring alike; the first one
    stands for it.
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
    with np.errstate(invalid="ignore"):  # the midpoint of -inf and inf is NaN
        threshold = 0.5 * (cols.values[feature, at] + cols.values[feature, above])
    return np.where(lowest[node, best] < np.inf, feature, -1), threshold


def _class_counts(weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Float (count of label 0, count of label 1) per row of multiplicities."""
    ones = weights @ y
    return np.stack([weights.sum(axis=-1) - ones, ones], axis=-1).astype(np.float64)


def train_forest(X, y, n_trees: int = 100, seed: int = 0) -> Forest:
    """Bootstrap-aggregated Gini trees over ceil(sqrt(F)) feature candidates per split.

    Trees grow until pure or down to fewer than 2 samples; everything is
    deterministic given the seed, with one substream per tree. A node is its
    bootstrap multiplicity per training row. All trees grow together in
    waves: each tree pops the next node off its own depth-first stack (left
    child first) and draws that node's candidate features, then one batched
    search scores every popped node. Only nodes holding both labels are
    stacked; the rest become leaves when they are made. A tree that makes
    EMPTY_SPLIT_LIMIT splits in a row that each send a node's every sample
    one way would never finish, and raises ValueError.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    X, y = check_train_input(X, y, minimum=1)
    n, n_features = X.shape
    n_candidates = max(1, math.ceil(math.sqrt(n_features)))
    cols = _SortedColumns.of(X, y)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n_trees)]
    weights = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs])
    counts = _class_counts(weights, y)
    trees = [TreeNode() for _ in rngs]
    # per tree, its nodes still to split: (node, row multiplicities, class counts,
    # splits in a row that left a child empty)
    stacks = [[] for _ in rngs]

    def place(t, node, weights, counts, splittable, streak):
        if splittable:
            stacks[t].append((node, weights, counts, streak))
        else:
            node.counts = counts

    for t, splittable in enumerate(counts.all(axis=1).tolist()):
        place(t, trees[t], weights[t], counts[t], splittable, 0)
    growing = [t for t in range(n_trees) if stacks[t]]
    while growing:
        nodes, weights, counts, streaks = zip(*(stacks[t].pop() for t in growing))
        draws = [rngs[t].choice(n_features, size=n_candidates, replace=False) for t in growing]
        weights = np.stack(weights)
        feature, threshold = _best_splits(cols, weights, np.stack(draws))
        left = weights * (X.T[feature] < threshold[:, None])
        feature, threshold = feature.tolist(), threshold.tolist()
        children = np.concatenate([left, weights - left])  # lefts, then rights
        child_counts = _class_counts(children, y)
        can_split = child_counts.all(axis=1).tolist()
        occupied = child_counts.any(axis=1).tolist()
        s = len(growing)
        for i, t in enumerate(growing):
            node = nodes[i]
            if feature[i] < 0:
                node.counts = counts[i]
                continue
            streak = 0 if occupied[i] and occupied[s + i] else streaks[i] + 1
            if streak == EMPTY_SPLIT_LIMIT:
                raise ValueError(
                    f"tree {t}: {streak} splits in a row sent every sample one way (a -inf "
                    "value, or a midpoint that overflows or rounds onto a value, makes such "
                    "a threshold)"
                )
            node.feature, node.threshold = feature[i], threshold[i]
            node.left, node.right = TreeNode(), TreeNode()
            for child, j in ((node.right, s + i), (node.left, i)):
                place(t, child, children[j], child_counts[j], can_split[j], streak)
        growing = [t for t in growing if stacks[t]]
    return Forest(trees=trees, n_features=n_features)


def _tree_predict(node: TreeNode, row: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if row[node.feature] < node.threshold else node.right
    return int(np.argmax(node.counts))  # equal counts resolve to 0


def predict_cls(model, X) -> np.ndarray:
    """Predicted labels per row; see LinearModel / Forest for the tie rules."""
    if isinstance(model, LinearModel):
        z = standardize(X, model.input_mean, model.input_scale) @ model.weights + model.intercept
        if model.kind == "logistic":
            return (_sigmoid(z) >= 0.5).astype(np.int64)
        return (z >= 0.5).astype(np.int64)
    if isinstance(model, Forest):
        X = _as_rows(X, model.n_features)
        votes = np.zeros(len(X), dtype=np.int64)
        for tree in model.trees:
            votes += np.array([_tree_predict(tree, row) for row in X])
        return (votes * 2 > len(model.trees)).astype(np.int64)  # exact ties go to 0
    raise TypeError(f"unsupported model type {type(model).__name__}")
