"""Baseline classifiers over feature rows: logistic regression, an L1-shrinkage
linear classifier (squared loss on {0,1} targets, thresholded at 0.5), and a
random forest. All are hand-rolled on numpy so behavior is exact and seeded.
Every trainer, the autoencoder's included, checks its input with
:func:`check_train_input` and standardizes it with :func:`standardize_fit`.
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


def _gini_split_scores(values: np.ndarray, labels: np.ndarray):
    """Best threshold for one feature: (weighted gini, threshold) or None."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    ones = np.cumsum(labels[order])
    n = len(v)
    cut = np.nonzero(v[:-1] < v[1:])[0]
    if len(cut) == 0:
        return None
    n_left = cut + 1.0
    n_right = n - n_left
    left_ones = ones[cut]
    right_ones = ones[-1] - left_ones
    gini_left = 1.0 - (left_ones / n_left) ** 2 - (1.0 - left_ones / n_left) ** 2
    gini_right = 1.0 - (right_ones / n_right) ** 2 - (1.0 - right_ones / n_right) ** 2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    best = int(np.argmin(weighted))
    threshold = 0.5 * (v[cut[best]] + v[cut[best] + 1])
    return float(weighted[best]), threshold


def _build_tree(X: np.ndarray, y: np.ndarray, idx: np.ndarray, rng, n_candidates: int) -> TreeNode:
    counts = np.bincount(y[idx], minlength=2).astype(np.float64)
    if len(idx) < 2 or counts[0] == 0.0 or counts[1] == 0.0:
        return TreeNode(counts=counts)
    candidates = rng.choice(X.shape[1], size=n_candidates, replace=False)
    best = None
    for f in candidates:
        scored = _gini_split_scores(X[idx, f], y[idx])
        if scored is None:
            continue
        impurity, threshold = scored
        if best is None or impurity < best[0]:
            best = (impurity, int(f), threshold)
    if best is None:
        return TreeNode(counts=counts)
    _, feature, threshold = best
    mask = X[idx, feature] < threshold
    left = _build_tree(X, y, idx[mask], rng, n_candidates)
    right = _build_tree(X, y, idx[~mask], rng, n_candidates)
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def train_forest(X, y, n_trees: int = 100, seed: int = 0) -> Forest:
    """Bootstrap-aggregated Gini trees over ceil(sqrt(F)) feature candidates per split.

    Trees grow until pure or down to fewer than 2 samples; everything is
    deterministic given the seed, with one substream per tree.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    X, y = check_train_input(X, y, minimum=1)
    n, n_features = X.shape
    n_candidates = max(1, math.ceil(math.sqrt(n_features)))
    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        trees.append(_build_tree(X, y, boot, rng, n_candidates))
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
