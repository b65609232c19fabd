"""Per-turn feature functions over ranked lists and their multi-turn assembly.

Every feature operates on the top min(top_n, len(items)) slice of a turn's
ranking. The coherence measures capture geometric relations among the
retrieved embeddings (and optionally their relation to a query vector); the
exact definitions used here are fixed and documented per function. Downstream
code depends only on the mapping "ranking -> feature vector" exposed through
``FEATURE_KINDS``, so alternative definitions can be swapped in behind the
same keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import ConversationRun, TurnRanking, ValidationError, read_csv, write_csv

__all__ = [
    "score_stats",
    "autocorrelation",
    "mean_pairwise_similarity",
    "reciprocal_volume",
    "anchored_pair_ratio",
    "query_surrogate",
    "pooled_embedding",
    "top_item_embedding",
    "turn_features",
    "FeatureTable",
    "assemble_multiturn",
    "FEATURE_KINDS",
    "FeatureMatrix",
    "build_feature_matrix",
    "write_features",
    "read_features",
]

GRAM_RIDGE = 1e-8
RATIO_GUARD = 1e-12


def _top(ranking: TurnRanking, top_n: int, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    """The scores and embedding rows of the top min(top_n, len(items)) items."""
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    n = min(top_n, len(ranking.items))
    if n < minimum:
        raise ValueError(
            f"needs at least {minimum} item{'s' if minimum > 1 else ''}, top_n {top_n} keeps {n}"
        )
    return ranking.scores[:n], ranking.embeddings[:n]


@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> np.ndarray:
    """Flat indices of the unordered pairs i < j of an n x n matrix, in triu order; read-only."""
    iu, ju = np.triu_indices(n, k=1)
    flat = iu * n + ju
    flat.flags.writeable = False
    return flat


def _pair_values(square: np.ndarray) -> np.ndarray:
    """The strictly upper triangle of a C-contiguous square matrix, row by row."""
    return square.ravel()[_upper_pairs(len(square))]


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("found a zero-norm embedding")
    return mat / norms


def _cosine_matrix(mat: np.ndarray) -> np.ndarray:
    unit = _unit_rows(mat)
    return np.clip(unit @ unit.T, -1.0, 1.0)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).mean()))
    sy = float(np.sqrt((dy * dy).mean()))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.clip((dx * dy).mean() / (sx * sy), -1.0, 1.0))


def score_stats(ranking: TurnRanking, top_n: int = 100) -> tuple[float, float, float]:
    """(mean, max, population std) of the top-n retrieval scores."""
    scores, _ = _top(ranking, top_n, minimum=1)
    return float(scores.mean()), float(scores.max()), float(scores.std())


def autocorrelation(ranking: TurnRanking, top_n: int = 100) -> float:
    """Score diffusion over the item similarity graph, in [-1, 1].

    Weights w_ij = max(cos(e_i, e_j), 0) with zero diagonal are row-normalized
    (all-zero rows diffuse to 0) and applied to the score vector; the result
    is the Pearson correlation between original and diffused scores, with 0
    returned when either side has zero variance. Negative cosines are clamped
    because row-normalizing mixed-sign weights is ill-defined.
    """
    scores, embeddings = _top(ranking, top_n, minimum=2)
    weights = np.maximum(_cosine_matrix(embeddings), 0.0)
    np.fill_diagonal(weights, 0.0)
    row_sums = weights.sum(axis=1, keepdims=True)
    safe = np.where(row_sums == 0.0, 1.0, row_sums)
    diffused = (weights / safe) @ scores
    return _pearson(scores, diffused)


def mean_pairwise_similarity(ranking: TurnRanking, top_n: int = 100) -> float:
    """Mean cosine over all unordered pairs of the top-n embeddings."""
    _, embeddings = _top(ranking, top_n, minimum=2)
    return float(_pair_values(_cosine_matrix(embeddings)).mean())


def query_surrogate(ranking: TurnRanking, top_n: int = 100) -> np.ndarray:
    """The turn's query embedding if present, else the normalized top-n centroid."""
    if ranking.query_embedding is not None:
        return ranking.query_embedding
    centroid = _top(ranking, top_n, minimum=1)[1].mean(axis=0)
    norm = float(np.linalg.norm(centroid))
    if norm == 0.0:
        raise ValueError("found a zero-norm centroid, no query surrogate")
    return centroid / norm


def reciprocal_volume(ranking: TurnRanking, top_n: int = 100) -> float:
    """Inverse square-root volume of the query-centered Gram matrix.

    Rows m_i = e_i - q feed G = M M^T; the value is exp(-0.5 logdet(G + rI))
    with ridge r = 1e-8. The ridge keeps the result finite when the number of
    items exceeds the embedding dimension (where the raw volume is exactly 0);
    note the value then grows like exp(9.2 * (n - d)), which stays within
    float range for the shipped defaults but can overflow when n - d is large.
    """
    rows = _top(ranking, top_n, minimum=1)[1] - query_surrogate(ranking, top_n)
    gram = rows @ rows.T
    gram.flat[:: len(rows) + 1] += GRAM_RIDGE
    _, logdet = np.linalg.slogdet(gram)
    return float(np.exp(-0.5 * logdet))


def anchored_pair_ratio(ranking: TurnRanking, top_n: int = 100) -> float:
    """Mean pairwise cosine distance relative to mean query-to-item distance."""
    _, embeddings = _top(ranking, top_n, minimum=2)
    unit = _unit_rows(embeddings)
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    pair_distance = float((1.0 - _pair_values(cos)).mean())
    q = query_surrogate(ranking, top_n)
    q_unit = q / np.linalg.norm(q)
    to_query = np.clip(unit @ q_unit, -1.0, 1.0)
    query_distance = float((1.0 - to_query).mean())
    return pair_distance / (query_distance + RATIO_GUARD)


def pooled_embedding(ranking: TurnRanking, top_n: int = 100) -> np.ndarray:
    """Arithmetic mean of the top-n item embeddings (not normalized)."""
    return _top(ranking, top_n, minimum=1)[1].mean(axis=0)


def top_item_embedding(ranking: TurnRanking, top_n: int = 100) -> np.ndarray:
    """The top-ranked item's embedding."""
    return _top(ranking, top_n, minimum=1)[1][0]


FEATURE_KINDS = {
    "ac": lambda r, n: np.array([autocorrelation(r, n)]),
    "wand": lambda r, n: np.array([mean_pairwise_similarity(r, n)]),
    "rv": lambda r, n: np.array([reciprocal_volume(r, n)]),
    "apr": lambda r, n: np.array([anchored_pair_ratio(r, n)]),
    "score": lambda r, n: np.array(score_stats(r, n)),
    "pooled": pooled_embedding,
    "top1": top_item_embedding,
}


def turn_features(run: ConversationRun, kind: str, turn: int, top_n: int = 100) -> np.ndarray:
    """Feature values of one turn of one conversation.

    A ranking the kind cannot use raises ValueError naming the conversation,
    the turn and the kind, as in ``c7 turn 2: ac needs at least 2 items,
    top_n 1 keeps 1``.
    """
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}; valid: {sorted(FEATURE_KINDS)}")
    if not 1 <= turn <= run.n_turns:
        raise ValueError(
            f"{run.conversation_id}: turn {turn} outside run with {run.n_turns} turns"
        )
    try:
        values = FEATURE_KINDS[kind](run.turns[turn - 1], top_n)
    except ValueError as exc:
        raise ValueError(f"{run.conversation_id} turn {turn}: {kind} {exc}") from exc
    return np.asarray(values, dtype=np.float64)


class FeatureTable:
    """Per-turn feature rows, each computed once per (run, kind, turn, top_n).

    Rows are keyed by the run object, not its conversation id: a run that
    scenario induction replaced gets rows of its own, while one it left
    untouched (the same object) shares them. The table holds each run it
    has seen, so an ``id`` cannot be reused by another run while it lives.
    Missing rows come from :func:`turn_features`.
    """

    def __init__(self):
        self._runs: dict[int, ConversationRun] = {}
        self._rows: dict[tuple[int, str, int, int], np.ndarray] = {}

    def block(self, runs, kind: str, turn: int, top_n: int) -> np.ndarray:
        """The (len(runs), width) matrix of the turn's features, one row per run in order."""
        rows = []
        for run in runs:
            key = (id(run), kind, turn, top_n)
            row = self._rows.get(key)
            if row is None:
                row = turn_features(run, kind, turn, top_n)
                self._runs.setdefault(id(run), run)
                self._rows[key] = row
            rows.append(row)
        return np.vstack(rows)


def assemble_multiturn(
    run: ConversationRun, kind: str, upto_turn: int, top_n: int = 100
) -> np.ndarray:
    """Concatenated per-turn features of turns 1..upto_turn, in turn order."""
    if upto_turn < 1:
        raise ValueError(f"upto_turn must be >= 1, got {upto_turn}")
    if upto_turn > run.n_turns:
        raise ValueError(
            f"{run.conversation_id}: upto_turn {upto_turn} exceeds run length {run.n_turns}"
        )
    return np.concatenate(
        [turn_features(run, kind, t, top_n) for t in range(1, upto_turn + 1)]
    )


@dataclass(eq=False)
class FeatureMatrix:
    """Per-conversation feature rows for one predictor at one turn horizon."""

    conversation_ids: tuple[str, ...]
    values: np.ndarray
    predictor: str
    upto_turn: int


def build_feature_matrix(
    runs, kind: str, upto_turn: int, top_n: int = 100, mode: str = "multi"
) -> FeatureMatrix:
    if mode not in ("multi", "single"):
        raise ValueError(f"mode must be 'multi' or 'single', got {mode!r}")
    if mode == "multi":
        rows = [assemble_multiturn(run, kind, upto_turn, top_n) for run in runs]
    else:
        rows = [turn_features(run, kind, upto_turn, top_n) for run in runs]
    return FeatureMatrix(
        conversation_ids=tuple(run.conversation_id for run in runs),
        values=np.vstack(rows),
        predictor=kind,
        upto_turn=upto_turn,
    )


def write_features(matrix: FeatureMatrix, path, header_comment: str | None = None) -> None:
    columns = ["conversation_id", "predictor", "upto_turn"]
    columns += [f"f_{i}" for i in range(matrix.values.shape[1])]
    rows = [
        [cid, matrix.predictor, matrix.upto_turn] + [repr(v) for v in row.tolist()]
        for cid, row in zip(matrix.conversation_ids, matrix.values)
    ]
    write_csv(path, header_comment, [columns] + rows)


def read_features(path) -> FeatureMatrix:
    name = Path(path).name
    header, records = read_csv(path, "feature")
    if header[:3] != ["conversation_id", "predictor", "upto_turn"]:
        raise ValidationError(f"{name}: unexpected feature header {header[:3]}")
    ids, rows, predictors, turns = [], [], set(), set()
    for record in records:
        ids.append(record[0])
        predictors.add(record[1])
        turns.add(int(record[2]))
        rows.append([float(v) for v in record[3:]])
    if not rows or len(predictors) != 1 or len(turns) != 1:
        raise ValidationError(f"{name}: feature file must hold one predictor/turn block")
    return FeatureMatrix(
        conversation_ids=tuple(ids),
        values=np.array(rows, dtype=np.float64),
        predictor=predictors.pop(),
        upto_turn=turns.pop(),
    )
