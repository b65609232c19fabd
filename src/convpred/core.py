"""Core domain types and elementary ranking operations.

A conversation run is the unit every other module consumes: one target item,
one ranked list of retrieved items per turn, an embedding for every item.
Scores are "higher is better" throughout and rank 1 is the top of a ranking.
All types are immutable after construction and all operations are pure, so
conversations can be processed concurrently without coordination.

Rankings and runs are valid by construction, through ``dataclasses.replace``
too: each constructor raises ValidationError on its first fault, and
:func:`validate_runs` checks only what spans runs.

Every artefact file opens with the settings that produced it as ``#`` comment
lines; :func:`write_header` writes them and :func:`write_csv` and
:func:`read_csv` frame the CSV artefacts around them. :func:`parse_records`
checks the fields of labels, report and predictions records alike.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ValidationError",
    "TurnRanking",
    "ConversationRun",
    "stored_rank",
    "round_half_up",
    "validate_runs",
    "runs_equal",
    "write_header",
    "write_csv",
    "read_csv",
    "parse_bit",
    "parse_cell_id",
    "parse_count",
    "parse_share",
    "parse_records",
    "read_records",
]


class ValidationError(ValueError):
    """A run, ranking, or config violates a structural invariant."""


def _as_embedding(values) -> np.ndarray:
    """Coerce a query embedding to a finite, non-empty 1-D float64 vector."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("query_embedding must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("query_embedding has non-finite entries")
    return arr


def _check_type(value, kind: type, what: str) -> None:
    """Raise unless ``value`` is exactly a ``kind``: a bool or a numpy scalar is not an int."""
    if type(value) is not kind:
        raise ValidationError(f"{what} {value!r} has type {type(value).__name__}, not {kind.__name__}")


@dataclass(frozen=True, eq=False)
class TurnRanking:
    """The ranked list retrieved at one turn, as three aligned columns.

    ``items`` holds the item ids in rank order, ``scores`` the ``(n,)``
    retrieval scores and ``embeddings`` the ``(n, d)`` item embeddings, row i
    belonging to ``items[i]``. Construction checks that ``turn`` is an
    ``int``, the ids and a critique, if given, ``str``, the ids distinct,
    the scores finite and non-increasing with exact ties broken by item id
    ascending, every row finite and of non-zero norm, and a query, if given,
    as wide as the rows and of non-zero norm. An empty ranking has a
    ``(0, 0)`` embedding matrix.

    The embeddings are stored as an ``(m, d)`` float64 item table
    ``item_rows`` plus an ``(n,)`` intp index ``rows``: row i is
    ``item_rows[rows[i]]``. With ``rows=None`` the given matrix holds the
    ranking's own rows; it is copied into a new read-only table indexed by
    ``arange(n)``. Given ``rows``, the table is shared, not copied, so that
    rankings over one catalogue, or read from one run file, hold one table
    instead of each copying its rows. Such a table must already be a
    read-only 2-D float64 array, and whoever made it must not write to it
    later through another reference (a writable base, or its flag set back),
    since the ranking checked the rows as they were. Every array a ranking
    holds is read-only. ``embeddings`` gathers a new read-only matrix on each
    access; bind it once per ranking.
    ``query_embedding`` is optional: externally produced runs may supply the
    live query vector; otherwise features fall back to a centroid surrogate.
    """

    turn: int
    items: tuple[str, ...]
    scores: np.ndarray
    item_rows: np.ndarray
    rows: np.ndarray | None = field(default=None, kw_only=True)
    query_embedding: np.ndarray | None = None
    critique: str | None = None

    def __post_init__(self):
        items = tuple(self.items)
        _check_type(self.turn, int, "turn")
        if not set(map(type, items)) <= {str}:  # one pass in C over the ids
            _check_type(next(i for i in items if type(i) is not str), str, f"turn {self.turn}: item id")
        if self.critique is not None:
            _check_type(self.critique, str, f"turn {self.turn}: critique")
        n = len(items)
        scores = np.array(self.scores, dtype=np.float64)
        if self.rows is None:
            table = np.array(self.item_rows, dtype=np.float64)
            if not items and not table.size:
                table = np.empty((0, 0))
            rows, held = np.arange(n, dtype=np.intp), table
        else:
            table, rows = self.item_rows, self._shared_rows(n)
            held = table.take(rows, axis=0)
        if scores.shape != (n,) or held.ndim != 2 or len(held) != n:
            raise ValidationError(
                f"turn {self.turn}: {n} item ids need {n} scores and {n} embedding rows, "
                f"got shapes {scores.shape} and {held.shape}"
            )
        if n and not held.shape[1]:
            raise ValidationError("embedding must be a non-empty 1-D vector")
        if not np.all(np.isfinite(held)):
            raise ValidationError("embedding has non-finite entries")
        query = None if self.query_embedding is None else _as_embedding(self.query_embedding)
        if n:
            _check_items(items, scores, held)
        if query is not None:
            if n and query.size != held.shape[1]:
                raise ValidationError(
                    f"dimension mismatch for query_embedding ({query.size} vs {held.shape[1]})"
                )
            if float(np.linalg.norm(query)) == 0.0:
                raise ValidationError("zero-norm embedding for query_embedding")
        for array in (scores, table, rows, query):
            if array is not None:
                array.flags.writeable = False
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "item_rows", table)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "query_embedding", query)

    def _shared_rows(self, n: int) -> np.ndarray:
        """``rows`` as a new intp array, once the shared table and the index are checked."""
        table, rows = self.item_rows, np.asarray(self.rows)
        where = f"turn {self.turn}"
        if not (
            isinstance(table, np.ndarray) and table.ndim == 2
            and table.dtype == np.float64 and not table.flags.writeable
        ):
            raise ValidationError(
                f"{where}: a shared item table must be a read-only 2-D float64 array"
            )
        if rows.shape != (n,) or (n and rows.dtype.kind not in "iu"):
            raise ValidationError(
                f"{where}: {n} item ids need {n} integer rows, got {rows.dtype} shape {rows.shape}"
            )
        if n and not (rows.min() >= 0 and rows.max() < len(table)):
            raise ValidationError(f"{where}: rows must lie in [0, {len(table)})")
        return rows.astype(np.intp)

    @property
    def embeddings(self) -> np.ndarray:
        """The ``(n, d)`` item embeddings in rank order, read-only."""
        if not self.items:
            return self.item_rows[:0, :0]
        held = self.item_rows.take(self.rows, axis=0)
        held.flags.writeable = False
        return held


def _check_items(ids: tuple, scores: np.ndarray, rows: np.ndarray) -> None:
    """Raise for the first flagged item, naming its first failed check in the order
    duplicate id, non-finite score, zero-norm embedding, sort order."""
    n = len(ids)
    ties = np.flatnonzero(scores[:-1] == scores[1:])
    bad_tie = np.zeros(n, dtype=bool)
    bad_tie[ties + 1] = [ids[i] >= ids[i + 1] for i in ties]
    checks = [
        (~np.isfinite(scores), "non-finite score for item {!r}"),
        (np.linalg.norm(rows, axis=1) == 0.0, "zero-norm embedding for item {!r}"),
        (np.concatenate(([False], scores[:-1] < scores[1:])), "items not sorted by score"),
        (bad_tie, "items not sorted (score tie must break by item_id ascending)"),
    ]
    if len(set(ids)) < n:
        duplicate = np.ones(n, dtype=bool)
        duplicate[np.unique(np.array(ids, dtype=object), return_index=True)[1]] = False
        checks.insert(0, (duplicate, "duplicate item_id {!r}"))
    flagged = np.logical_or.reduce([flags for flags, _ in checks])
    if flagged.any():
        i = int(np.argmax(flagged))
        message = next(message for flags, message in checks if flags[i])
        raise ValidationError(message.format(ids[i]))


@dataclass(frozen=True, eq=False)
class ConversationRun:
    """One conversation: a target item and consecutive per-turn rankings.

    ``target_ranks`` optionally records the full-catalogue rank of the target
    at each turn (1-based), even when it falls outside the stored ranking
    depth; ``None`` entries mean the rank is unknown at that turn.

    Construction checks non-empty ``str`` ids, turns 1..K with K >= 2, one
    width ``dim`` for every item and query vector (None if none), and K
    positive ints or nulls in ``target_ranks``, K nulls being stored as None;
    errors name the conversation.
    """

    conversation_id: str
    target_id: str
    turns: tuple[TurnRanking, ...]
    target_ranks: tuple[int | None, ...] | None = None
    dim: int | None = field(init=False, repr=False)

    def __post_init__(self):
        cid, turns = self.conversation_id, tuple(self.turns)
        _check_type(cid, str, "conversation_id")
        if not cid:
            raise ValidationError("conversation_id must be non-empty")
        _check_type(self.target_id, str, f"{cid}: target_id")
        if not self.target_id:
            raise ValidationError(f"{cid}: target_id must be non-empty")
        if len(turns) < 2:
            raise ValidationError(f"{cid}: conversation needs at least 2 turns, got {len(turns)}")
        dim = None
        for expected, ranking in enumerate(turns, start=1):
            if ranking.turn != expected:
                raise ValidationError(
                    f"{cid}: non-consecutive turns (expected {expected}, got {ranking.turn})"
                )
            if ranking.items:
                what, width = f"item {ranking.items[0]!r}", ranking.item_rows.shape[1]
            elif ranking.query_embedding is not None:
                what, width = "query_embedding", ranking.query_embedding.size
            else:
                continue
            if dim not in (None, width):
                raise ValidationError(
                    f"{cid} turn {expected}: dimension mismatch for {what} ({width} vs {dim})"
                )
            dim = width
        ranks = () if self.target_ranks is None else tuple(self.target_ranks)
        if self.target_ranks is not None and len(ranks) != len(turns):
            raise ValidationError(
                f"{cid}: target_ranks length {len(ranks)} != number of turns {len(turns)}"
            )
        for t, rank in enumerate(ranks, start=1):
            if rank is not None and (type(rank) is not int or rank < 1):
                raise ValidationError(f"{cid} turn {t}: target rank must be a positive int or null")
        if all(r is None for r in ranks):
            ranks = None
        object.__setattr__(self, "turns", turns)
        object.__setattr__(self, "target_ranks", ranks)
        object.__setattr__(self, "dim", dim)

    @property
    def n_turns(self) -> int:
        return len(self.turns)


def stored_rank(ranking: TurnRanking, target_id: str) -> int | None:
    """1-based position of ``target_id`` in the stored items, None if absent."""
    return ranking.items.index(target_id) + 1 if target_id in ranking.items else None


def round_half_up(x: float) -> int:
    """Round a non-negative quantity to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5))


def validate_runs(runs, where=None) -> None:
    """Refuse a repeated conversation id or a ``dim`` that differs between runs.

    Each run checked itself when it was built. ``where``, if given, holds one
    label per run (a file and line, say), and the error raised for a run
    starts with that run's label.
    """
    dim, seen_ids = None, set()
    for k, run in enumerate(runs):
        cid = run.conversation_id
        if cid in seen_ids:
            fault = f"duplicate conversation_id {cid!r}"
        elif None not in (dim, run.dim) and run.dim != dim:
            fault = f"{cid}: dimension mismatch across runs ({run.dim} vs {dim})"
        else:
            seen_ids.add(cid)
            dim = dim or run.dim
            continue
        raise ValidationError(fault if where is None else f"{where[k]}: {fault}")


def runs_equal(a: ConversationRun, b: ConversationRun) -> bool:
    """Exact structural equality (ids, scores, embeddings, ranks, critiques)."""
    return (a.conversation_id, a.target_id, a.target_ranks, len(a.turns)) == (
        b.conversation_id, b.target_id, b.target_ranks, len(b.turns)
    ) and all(
        (ta.turn, ta.critique, ta.items) == (tb.turn, tb.critique, tb.items)
        and np.array_equal(ta.query_embedding, tb.query_embedding)  # None equals only None
        and np.array_equal(ta.scores, tb.scores)
        and np.array_equal(ta.embeddings, tb.embeddings)
        for ta, tb in zip(a.turns, b.turns)
    )


def write_header(fh, header_comment: str | None) -> None:
    """Write each line of ``header_comment`` as a ``#`` comment line.

    Lines that already start with ``#`` are written as they are; the others
    get a ``# `` prefix. ``None`` or an empty string writes nothing.
    """
    if header_comment:
        for line in header_comment.splitlines():
            fh.write(line if line.startswith("#") else f"# {line}")
            fh.write("\n")


def write_csv(path, header_comment: str | None, rows) -> None:
    """Write the header comment, then ``rows`` (column names first) as CSV."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        write_header(fh, header_comment)
        csv.writer(fh).writerows(rows)


def read_csv(path, what: str) -> tuple[list[str], list[list[str]]]:
    """The column names and records of a CSV artefact, skipping ``#`` lines.

    Raises ValidationError naming the file and ``what`` it should hold when
    it has no column-name line.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path.name}: empty {what} file")
        return header, list(reader)


def parse_bit(field: str) -> int:
    if field not in ("0", "1"):
        raise ValueError(field)
    return int(field)


def parse_share(field: str) -> float:
    value = float(field)
    if not 0.0 <= value <= 1.0:  # nan fails too
        raise ValueError(field)
    return value


def parse_count(field: str) -> int:
    value = int(field)
    if value < 1:
        raise ValueError(field)
    return value


def parse_cell_id(field: str) -> str:
    if field.count("|") != 5:
        raise ValueError(field)
    return field


# what each field parser accepts, for the error it raises on another value
_MUST_BE = {parse_share: "a number in [0, 1]", parse_count: "an integer >= 1", parse_bit: "0 or 1",
            parse_cell_id: "predictor|classifier|scenario|mode|T,E|cutoffC"}


def parse_records(name: str, what: str, columns: dict, header: list, records: list) -> list[list]:
    """Each record's fields, parsed by ``columns``: column name -> parser, in file order.

    Raises ValidationError naming the file ``name``, the record (counted from
    1, comment lines skipped) and the column when ``header`` is not the column
    names, a record has another number of fields, or a field does not parse.
    """
    if header != list(columns):
        raise ValidationError(f"{name}: unexpected {what} header {header}")
    parsed = []
    for number, record in enumerate(records, 1):
        if len(record) != len(columns):
            raise ValidationError(
                f"{name}: record {number}: {len(record)} field(s), the header names {len(columns)}"
            )
        values = []
        for (column, parse), value in zip(columns.items(), record):
            try:
                values.append(parse(value))
            except ValueError:
                raise ValidationError(
                    f"{name}: record {number}: {column} must be {_MUST_BE[parse]}, got {value!r}"
                ) from None
        parsed.append(values)
    return parsed


def read_records(path, what: str, columns: dict) -> list[list]:
    """The parsed records of the CSV artefact at ``path`` (see :func:`parse_records`)."""
    return parse_records(Path(path).name, what, columns, *read_csv(path, what))
