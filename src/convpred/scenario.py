"""Ground-truth labeling and missing-target induction.

The base scenario labels a conversation "found by turn k" (cumulatively) when
the target reaches the rank cutoff at any turn up to k; conversations never
reaching the cutoff by the final turn are system failures. Catalogue failures
are induced from that ground truth: a seeded sample of the easy conversations
has the target deleted from every ranking and its labels forced to 0, after
which features must be recomputed from the modified runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress
from pathlib import Path

import numpy as np

from .core import (
    ConversationRun,
    ValidationError,
    check_seed,
    parse_bit,
    parse_count,
    parse_records,
    read_csv,
    round_half_up,
    stored_rank,
    write_csv,
)

__all__ = [
    "LabelSet",
    "label_runs",
    "identify_easy",
    "induce_missing",
    "write_labels",
    "read_labels",
]


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Per-conversation cumulative found/not-found labels plus scenario tag."""

    labels: dict[str, tuple[int, ...]]
    scenario: str = "base"
    cutoff: int = 100
    forced: frozenset[str] = field(default_factory=frozenset)

    def label_at(self, conversation_id: str, turn: int) -> int:
        """The conversation's label at ``turn``, 1..K; another turn raises ValueError."""
        vec = self.labels[conversation_id]
        if not 1 <= turn <= len(vec):
            raise ValueError(f"{conversation_id}: turn {turn} outside labels for {len(vec)} turns")
        return vec[turn - 1]

    def final_labels(self) -> dict[str, int]:
        return {cid: vec[-1] for cid, vec in self.labels.items()}


def _turn_found(run: ConversationRun, turn_index: int, cutoff: int) -> bool:
    ranking = run.turns[turn_index]
    pos = stored_rank(ranking, run.target_id)
    if pos is not None:
        return pos <= cutoff
    if len(ranking.items) >= cutoff:
        return False
    full_rank = run.target_ranks[turn_index] if run.target_ranks is not None else None
    if full_rank is None:
        raise ValidationError(
            f"{run.conversation_id} turn {ranking.turn}: insufficient depth for cutoff "
            f"{cutoff} (stored depth {len(ranking.items)}, no target rank recorded)"
        )
    return full_rank <= cutoff


def label_runs(runs, cutoff: int = 100) -> LabelSet:
    """Base-scenario labels: label(C, k) = 1 iff the target reached the cutoff by turn k.

    The rank comes from the stored ranking, falling back to the recorded
    full-catalogue target rank when the stored depth is shallower than the
    cutoff. Labels are monotone non-decreasing in k by construction.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    labels: dict[str, tuple[int, ...]] = {}
    for run in runs:
        found = False
        vec = []
        for turn_index in range(run.n_turns):
            found = found or _turn_found(run, turn_index, cutoff)
            vec.append(int(found))
        labels[run.conversation_id] = tuple(vec)
    return LabelSet(labels=labels, scenario="base", cutoff=cutoff)


def identify_easy(labels: LabelSet) -> set[str]:
    """Conversations found by the cutoff by their final turn."""
    if labels.scenario != "base":
        raise ValueError("easy items are identified on base-scenario labels")
    return {cid for cid, vec in labels.labels.items() if vec[-1] == 1}


def _delete_target(run: ConversationRun) -> ConversationRun:
    """``run`` without its target; each ranking keeps its item table and drops the target's row."""
    turns = []
    for ranking in run.turns:
        keep = np.array(ranking.items, dtype=object) != run.target_id
        items = tuple(compress(ranking.items, keep))
        turns.append(
            replace(ranking, items=items, scores=ranking.scores[keep], rows=ranking.rows[keep])
        )
    return ConversationRun(
        conversation_id=run.conversation_id,
        target_id=run.target_id,
        turns=tuple(turns),
        target_ranks=None,  # the target no longer exists in the catalogue
    )


def induce_missing(
    runs, labels: LabelSet, fraction: float = 0.3, seed: int = 0
) -> tuple[list[ConversationRun], LabelSet]:
    """Convert a seeded sample of easy conversations into catalogue failures.

    Samples round(fraction * |easy|) conversations uniformly without
    replacement, deletes the target from every turn's ranking (remaining items
    shift up, depth shrinks by at most 1), and forces their labels to 0.
    Unselected runs are returned as the same objects, byte-identical on write.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    check_seed(seed)
    easy = identify_easy(labels)
    if not easy:
        raise ValueError("no easy conversations: nothing to induce from")
    n_forced = round_half_up(fraction * len(easy))
    rng = np.random.default_rng(seed)
    selected = frozenset(rng.choice(sorted(easy), size=n_forced, replace=False).tolist())

    modified = [_delete_target(run) if run.conversation_id in selected else run for run in runs]
    new_labels = {
        cid: (0,) * len(vec) if cid in selected else vec for cid, vec in labels.labels.items()
    }
    return modified, LabelSet(
        labels=new_labels,
        scenario="missing_target",
        cutoff=labels.cutoff,
        forced=selected,
    )


def _label_columns(n_turns: int) -> dict:
    """A labels file's columns, each with its parser: the id, the scenario/cutoff block, k1..kK."""
    return {"conversation_id": str, "scenario": str, "cutoff": parse_count, "forced": parse_bit,
            **{f"k{t}": parse_bit for t in range(1, n_turns + 1)}}


def write_labels(labels: LabelSet, path, header_comment: str | None = None) -> None:
    if not labels.labels:
        raise ValidationError("no conversations to write labels for")
    lengths = {len(vec) for vec in labels.labels.values()}
    if len(lengths) != 1:
        raise ValidationError("label vectors must cover the same number of turns")
    rows = [[cid, labels.scenario, labels.cutoff, int(cid in labels.forced), *vec]
            for cid, vec in labels.labels.items()]
    write_csv(path, header_comment, [list(_label_columns(lengths.pop()))] + rows)


def read_labels(path) -> LabelSet:
    """The labels file at ``path``, its fields checked as :func:`~convpred.core.parse_records` does.

    The header must name ``conversation_id,scenario,cutoff,forced`` and then
    ``k1..kK``, K >= 1. Raises ValidationError naming the file (and the
    record and column, where one is at fault) on a repeated id, turn labels
    that fall from 1 back to 0, or more or less than one scenario/cutoff block.
    """
    name = Path(path).name
    header, records = read_csv(path, "labels")
    columns = _label_columns(max(len(header) - 4, 1))  # a header without turn columns is refused
    labels: dict[str, tuple[int, ...]] = {}
    blocks, forced = set(), set()
    parsed = parse_records(name, "labels", columns, header, records)
    for number, (cid, scenario, cutoff, is_forced, *vec) in enumerate(parsed, 1):
        if cid in labels:
            raise ValidationError(f"{name}: duplicate conversation_id {cid!r}")
        if vec != sorted(vec):
            fall = vec.index(0, vec.index(1)) + 1
            raise ValidationError(
                f"{name}: record {number}: k{fall} falls back to 0; labels are cumulative"
            )
        blocks.add((scenario, cutoff))
        if is_forced:
            forced.add(cid)
        labels[cid] = tuple(vec)
    if len(blocks) != 1:
        raise ValidationError(f"{name}: labels file must hold one scenario/cutoff block")
    (scenario, cutoff), = blocks
    return LabelSet(labels=labels, scenario=scenario, cutoff=cutoff, forced=frozenset(forced))
