"""Run-file serialization plus a seeded synthetic conversation generator.

Run file format (JSON Lines, UTF-8, one conversation object per line; lines
starting with '#' are header comments and are skipped on read):

    {"conversation_id": str, "target_id": str,
     "target_ranks": [int|null, ...],
     "turns": [{"turn": int, "query_embedding": [num]|null, "critique": str|null,
                "items": [{"id": str, "score": num, "embedding": [num]}]}]}

``target_ranks[t-1]`` is the full-catalogue rank of the target at turn t when
known, null otherwise. ``turn`` and each rank must be JSON integers, every
``str`` a JSON string and every ``num`` a JSON number (not a string or
boolean). Floats are emitted with Python's
shortest round-trip repr, so write -> read is value-exact.

Consecutive turns retrieve the same items again, so a file repeats the same
embedding arrays many times. The writer encodes each item's row once per file
and writes a line turn by turn, never holding a whole line. The reader cuts
a line at its ``"embedding"`` arrays with one regex split, so it holds the
line and one copy of its text, and decodes each distinct array text once per
file into one read-only item table, which the rankings of those lines index.
The writer's escapes (``\\u00e9`` for a non-ASCII letter, ``\\"`` for a quote)
take that path too. Lines in another layout (whitespace around that key, the
key first in its object, a ``\\u`` escape of an ASCII character such as
``\\u0065``) read through plain ``json.loads``: slower, to the same runs and
errors, each ranking with its own table. On both paths the rankings of one
file share one string per distinct item id. A ranking or run fault (unsorted
items, say) is raised as its line is read; a repeated conversation id and
dimensions that differ between lines wait for the whole file. Every error
names the file and line of the run.

The generator stands in for a trained retrieval model plus user simulator at
desk scale: a latent query vector is pulled toward the target item each turn,
with the pull rate controlling conversation difficulty, and the full ranked
catalogue is scored by cosine against that query.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    ConversationRun,
    TurnRanking,
    ValidationError,
    validate_runs,
    write_header,
)

__all__ = [
    "GenConfig",
    "calibration_config",
    "generate_synthetic",
    "write_runs",
    "read_runs",
]


@dataclass(frozen=True)
class GenConfig:
    """Synthetic generator settings.

    Difficulty is induced by the pull rate: "easy" conversations move the
    latent query toward the target embedding quickly, "hard" ones barely at
    all. ``pull_decay`` optionally shrinks the pull rate geometrically per
    turn (1.0 keeps it constant), which concentrates the informative signal
    in early turns.
    """

    n_conversations: int
    dim: int
    catalogue_size: int
    n_turns: int = 10
    top_n: int = 100
    easy_fraction: float = 0.7
    pull_rate_easy: float = 0.35
    pull_rate_hard: float = 0.02
    noise_sigma: float = 0.15
    pull_decay: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_conversations < 1:
            raise ValidationError("n_conversations must be >= 1")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.catalogue_size < 1:
            raise ValidationError("catalogue_size must be >= 1")
        if self.n_turns < 2:
            raise ValidationError("n_turns must be >= 2")
        if not 1 <= self.top_n <= self.catalogue_size:
            raise ValidationError("top_n must satisfy 1 <= top_n <= catalogue_size")
        if not 0.0 <= self.easy_fraction <= 1.0:
            raise ValidationError("easy_fraction must be in [0, 1]")
        if not 0.0 < self.pull_rate_easy <= 1.0:
            raise ValidationError("pull_rate_easy must be in (0, 1]")
        if not 0.0 <= self.pull_rate_hard < 1.0:
            raise ValidationError("pull_rate_hard must be in [0, 1)")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 < self.pull_decay <= 1.0:
            raise ValidationError("pull_decay must be in (0, 1]")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")


def calibration_config(seed: int = 0) -> GenConfig:
    """The shipped default generator: 200 conversations, 10 turns, mixed difficulty."""
    return GenConfig(n_conversations=200, dim=32, catalogue_size=2000, seed=seed)


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return mat / norms


def generate_synthetic(config: GenConfig) -> list[ConversationRun]:
    """Generate conversation runs; a pure function of the config (seed included).

    Catalogue embeddings are i.i.d. standard normal per coordinate, normalized
    to unit length. Per conversation a target is drawn, the latent query q
    starts at a random unit vector, and each turn updates

        q_t = normalize((1 - a_t) * q_{t-1} + a_t * e_target + sigma * g_t)

    with a_t the conversation's pull rate (optionally decayed per turn) and
    g_t i.i.d. standard normal. Turn scores are cosine(q_t, e_i) over the
    whole catalogue; the ranking stores the top_n items, indexing their rows
    of the one read-only catalogue table, and the target's full-catalogue
    rank is kept per turn. Per-conversation substreams make
    generation order-independent and reproducible.
    """
    root = np.random.SeedSequence(config.seed)
    cat_ss, order_ss, conv_root = root.spawn(3)

    catalogue = _unit_rows(
        np.random.default_rng(cat_ss).standard_normal((config.catalogue_size, config.dim))
    )
    catalogue.flags.writeable = False  # every ranking indexes this one table
    item_ids = [f"item_{i:06d}" for i in range(config.catalogue_size)]

    n = config.n_conversations
    perm = np.random.default_rng(order_ss).permutation(n)
    is_easy = np.zeros(n, dtype=bool)
    is_easy[perm[: math.ceil(config.easy_fraction * n)]] = True

    kth = config.top_n - 1
    runs: list[ConversationRun] = []
    for i, child in enumerate(conv_root.spawn(n)):
        rng = np.random.default_rng(child)
        target = int(rng.integers(config.catalogue_size))
        q = rng.standard_normal(config.dim)
        q /= np.linalg.norm(q) or 1.0
        base_rate = config.pull_rate_easy if is_easy[i] else config.pull_rate_hard

        turns = []
        target_ranks = []
        for t in range(1, config.n_turns + 1):
            rate = base_rate * config.pull_decay ** (t - 1)
            g = rng.standard_normal(config.dim)
            q = (1.0 - rate) * q + rate * catalogue[target] + config.noise_sigma * g
            q /= np.linalg.norm(q) or 1.0
            scores = catalogue @ q
            neg = -scores
            # the top_n lowest of -scores, every tie at the boundary included, then a
            # stable sort of those by -score, so equal scores keep catalogue order
            held = np.flatnonzero(neg <= np.partition(neg, kth)[kth])
            top = held[np.argsort(neg[held], kind="stable")[: config.top_n]]
            s = scores[target]
            target_ranks.append(
                1 + int(np.count_nonzero(scores > s)) + int(np.count_nonzero(scores[:target] == s))
            )
            items = tuple(item_ids[j] for j in top)
            turns.append(TurnRanking(t, items, scores[top], catalogue, q, rows=top))
        runs.append(
            ConversationRun(
                conversation_id=f"conv_{i:05d}",
                target_id=item_ids[target],
                turns=tuple(turns),
                target_ranks=tuple(target_ranks),
            )
        )
    return runs


_NUMBER_TYPES = frozenset((int, float))  # what json.loads makes of a JSON number


def _numbers(values, what: str) -> list:
    """``values`` if it is a JSON array of numbers (booleans are not); else TypeError."""
    if type(values) is list and _NUMBER_TYPES.issuperset(map(type, values)):
        return values
    raise TypeError(f"{what} must be JSON numbers, got {values!r}")


def _string(value, what: str) -> str:
    """``value`` if it is a JSON string; else TypeError."""
    if type(value) is str:
        return value
    raise TypeError(f"{what} must be a JSON string, got {value!r}")


def _turn_from_dict(tr: dict, cid: str, table, names: dict) -> TurnRanking:
    """The ranking in ``tr``, each item id the string ``names`` keeps for it; with
    ``table``, each item's ``"embedding"`` is its row there."""
    turn = tr["turn"]
    if type(turn) is not int:
        raise TypeError(f"{cid}: turn must be a JSON integer, got {turn!r}")
    items = tr["items"]
    try:
        ids = tuple(names.setdefault(i, i) for i in (_string(it["id"], "item id") for it in items))
        if table is None:
            rows = [_numbers(it["embedding"], "embedding") for it in items]
        else:
            rows = [it["embedding"] for it in items]
        scores = _numbers([it["score"] for it in items], "scores")
        query = tr.get("query_embedding")
        if query is not None:
            _numbers(query, "query_embedding")
        critique = tr.get("critique")
        if critique is not None:
            _string(critique, "critique")
        if table is None:  # the rows themselves become the ranking's own table
            lengths = sorted({len(r) for r in rows})
            if len(lengths) > 1:
                raise ValidationError(f"dimension mismatch among item embeddings {lengths}")
            table, rows = rows, None
        return TurnRanking(turn, ids, scores, table, rows=rows, query_embedding=query,
                           critique=critique)
    except (TypeError, ValidationError) as exc:  # a field's JSON type, or a ranking check
        raise type(exc)(f"{cid} turn {turn}: {exc}") from exc


def _run_from_dict(obj: dict, where: str, table, names: dict) -> ConversationRun:
    """The run in ``obj``; with ``table``, each item's ``"embedding"`` is its row there,
    and each item id is the string ``names`` keeps for it."""
    try:
        cid = _string(obj["conversation_id"], "conversation_id")
        return ConversationRun(
            conversation_id=cid,
            target_id=_string(obj["target_id"], "target_id"),
            turns=tuple(_turn_from_dict(tr, cid, table, names) for tr in obj["turns"]),
            target_ranks=obj.get("target_ranks"),
        )
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: malformed run record ({exc})") from exc


# one encoder for every value keeps json's float repr, its ASCII escaping of
# strings and its refusal of NaN/inf
_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _turn_text(ranking: TurnRanking, items: dict) -> str:
    """One turn object; ``items`` caches each id's encoded text around its score.

    The cache holds ``id -> (row bytes, text before the score, text after it)``
    and is keyed on the row's bytes, not its float values, because -0.0 and
    0.0 compare equal but print differently. An id that comes back with other
    row bytes is encoded again and replaces its entry.
    """
    query = ranking.query_embedding
    head = (
        f'{{"turn":{_encode(ranking.turn)},'
        f'"query_embedding":{_encode(None if query is None else query.tolist())},'
        f'"critique":{_encode(ranking.critique)},"items":['
    )
    if not ranking.items:
        return head + "]}"
    embeddings = ranking.embeddings
    raw = embeddings.tobytes()
    width = len(raw) // len(embeddings)
    scores = _encode(ranking.scores.tolist())[1:-1].split(",")  # float reprs hold no comma
    parts = []
    for i, (item_id, score) in enumerate(zip(ranking.items, scores)):
        row = raw[i * width : (i + 1) * width]
        entry = items.get(item_id)
        if entry is None or entry[0] != row:
            entry = items[item_id] = (
                row,
                f'{{"id":{_encode(item_id)},"score":',
                f',"embedding":{_encode(embeddings[i].tolist())}}}',
            )
        parts.append(entry[1] + score + entry[2])
    return head + ",".join(parts) + "]}"


def write_runs(runs, path, header_comment: str | None = None) -> None:
    """Write runs as JSON Lines; refuses a repeated id or differing dimensions.

    Each line is the run file format's object with keys in the documented
    order and no whitespace. Each item id's embedding is encoded once per
    file, however many turns retrieve it. A line is written turn by turn, so
    no string the size of a whole line is built.
    """
    validate_runs(runs)
    path = Path(path)
    items: dict = {}
    with path.open("w", encoding="utf-8") as fh:
        write_header(fh, header_comment)
        for run in runs:
            ranks = [None] * run.n_turns if run.target_ranks is None else list(run.target_ranks)
            fh.write(
                f'{{"conversation_id":{_encode(run.conversation_id)},'
                f'"target_id":{_encode(run.target_id)},'
                f'"target_ranks":{_encode(ranks)},"turns":['
            )
            for k, ranking in enumerate(run.turns):
                if k:
                    fh.write(",")
                fh.write(_turn_text(ranking, items))
            fh.write("]}\n")


class _ItemTable:
    """The distinct embedding rows of one run file, in the order first read.

    ``index`` maps each ``"embedding"`` array text to its row. New rows go
    into a buffer that doubles when full, and ``view`` is a read-only view
    of the rows filled so far. Appends write only past that view and a grown
    buffer is a new array, so a view handed out never changes.
    """

    def __init__(self):
        self.index: dict[str, int] = {}
        self._buffer = np.empty((0, 0))
        self.view = self._buffer[:0]
        self.view.flags.writeable = False

    def append(self, texts: list, block: np.ndarray) -> bool:
        """Add the rows ``block`` of ``texts``; False, adding none, if their width differs."""
        n, (k, d) = len(self.index), block.shape
        if n and d != self._buffer.shape[1]:
            return False
        if n + k > len(self._buffer):  # double, or grow to fit; reshape gives the empty start d
            self._buffer = np.concatenate((self.view.reshape(n, d), np.empty((max(n, k), d))))
        self._buffer[n : n + k] = block
        self.index.update(zip(texts, range(n, n + k)))
        self.view = self._buffer[: n + k]
        self.view.flags.writeable = False
        return True


_EMBEDDING = ',"embedding":['
# of the escapes, only a \u escape of U+0000..U+007F can spell a key's letters
_ASCII_ESCAPE = re.compile(r"\\u00[0-7]").search
# one split gives each ``,"embedding":[...]`` array's text (odd parts) and what follows it
_SPLIT_EMBEDDINGS = re.compile(r',"embedding":\[([^\]]*)\]').split


def _decode_line(text: str, table: _ItemTable):
    """``json.loads(text)`` with each distinct embedding array decoded once per file.

    One regex split cuts ``text`` into the text of each ``,"embedding":[...]``
    array and the tails between them, the only copy of the line it makes.
    Each array text is looked up in ``table``, the new ones are decoded
    together and appended, and the rest of the line is parsed with each
    array replaced by its row in the table. Returns that object and
    ``table.view``, or None for a line that cannot be shown to decode as
    ``json.loads`` would: one with a ``\\u0000``-``\\u007f`` escape (which
    could spell a key another way, as the writer's ``\\u00e9`` and ``\\"``
    cannot), a ``"embedding"`` that is not the key of a split array
    (written otherwise, or its array not closed by a ``]`` before the next
    such key or the line's end), an array holding a string or an array, or
    new rows that do not parse, hold a non-number or differ in length from
    each other or from the table's.
    """
    # with a "]" after the last key every match the split tries succeeds, so
    # it reads the line once; without one, each try would run to the line's end
    if ("\\" in text and _ASCII_ESCAPE(text)) or text.rfind("]") < text.rfind(_EMBEDDING):
        return None
    parts = _SPLIT_EMBEDDINGS(text)
    texts, tails = parts[1::2], parts[2::2]
    if text.count('"embedding"') != len(texts):
        return None
    index = table.index
    new = [t for t in dict.fromkeys(texts) if t not in index]
    if any('"' in t or "[" in t for t in new):
        return None
    if new:
        try:
            decoded = json.loads("[[" + "],[".join(new) + "]]")
            if not _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(decoded))):
                return None
            block = np.array(decoded, dtype=np.float64)
        except (ValueError, OverflowError):  # bad JSON, ragged rows, an int beyond float range
            return None
        if not table.append(new, block):
            return None
    # the space ends the row number, so what follows the array cannot extend it
    skeleton = "".join(f',"embedding":{index[t]} {tail}' for t, tail in zip(texts, tails))
    try:
        return json.loads(parts[0] + skeleton), table.view
    except ValueError:
        return None


def read_runs(path) -> list[ConversationRun]:
    """Read and validate a run file; raises ValidationError with context.

    Each distinct embedding array text is decoded once per file into one
    read-only item table, which every ranking of those lines indexes (see
    :func:`_decode_line`). A line that path cannot take is read with plain
    ``json.loads``, to the same runs and errors, its rankings each holding
    its own table. A ranking or run fault is raised as its line is read, a
    repeated id or differing dimension once the whole file has parsed; each
    error starts with the file and line of the run at fault.
    """
    path = Path(path)
    runs: list[ConversationRun] = []
    lines: list[str] = []  # where each run was read
    table, names = _ItemTable(), {}
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path.name} line {lineno}"
            if not line.isascii():
                try:  # undo the escaping to name the first byte that is not UTF-8
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValidationError(f"{where}: not UTF-8 ({exc})") from None
            text = line.lstrip()  # the line itself when it starts with no blank
            if not text or text.startswith("#"):
                continue
            # both parsers take the line as read, so an error's column is the line's own
            decoded = _decode_line(line, table)
            if decoded is None:
                try:
                    decoded = json.loads(line), None
                except ValueError as exc:  # bad JSON, or an integer literal too long to convert
                    raise ValidationError(f"{where}: invalid JSON ({exc})") from exc
            obj, item_rows = decoded
            runs.append(_run_from_dict(obj, where, item_rows, names))
            lines.append(where)
    validate_runs(runs, lines)
    return runs
