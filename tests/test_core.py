import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpred.core import (
    ConversationRun,
    TurnRanking,
    ValidationError,
    read_csv,
    round_half_up,
    runs_equal,
    validate_runs,
)
from convpred.data_io import read_runs, write_runs
from convpred.evaluation import (
    EvalReport,
    PredictionRecord,
    ReportRow,
    read_predictions,
    read_report,
    write_predictions,
    write_report,
)
from convpred.features import build_feature_matrix, mean_pairwise_similarity, write_features
from convpred.scenario import LabelSet, label_runs, read_labels, write_labels
from helpers import make_ranking, make_run, oracle_run_dict, random_run

vectors = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
).filter(lambda v: math.sqrt(sum(x * x for x in v)) > 1e-6)


def cosine_similarity(a, b) -> float:
    """The cosine of the coherence features: wand of a two-item ranking."""
    return mean_pairwise_similarity(make_ranking([2.0, 1.0], np.array([a, b], dtype=np.float64)))


class TestCosine:
    def test_identical(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_half_diagonal(self):
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity([0, 0], [1, 0])

    @given(vectors, vectors)
    def test_symmetry(self, a, b):
        if len(a) != len(b):
            return
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)

    @given(vectors, st.floats(1e-3, 1e3))
    def test_positive_scaling(self, a, s):
        scaled = [s * x for x in a]
        if math.sqrt(sum(x * x for x in scaled)) <= 1e-9:
            return
        assert cosine_similarity(a, scaled) == pytest.approx(1.0, abs=1e-9)

    @given(vectors, vectors)
    def test_range(self, a, b):
        if len(a) != len(b):
            return
        assert -1.0 <= cosine_similarity(a, b) <= 1.0


def three_item_ranking():
    return make_ranking([3.0, 2.0, 1.0], np.eye(3), ids=["a", "b", "c"])


def found_by(ranking, target_id: str, cutoff: int) -> bool:
    """Whether labelling finds the target at the cutoff in the first of two turns."""
    run = make_run([ranking, replace(ranking, turn=2)], target=target_id)
    return label_runs([run], cutoff=cutoff).labels["c0"][0] == 1


class TestRankOps:
    def test_found_by_inclusive_boundary(self):
        n = 100
        ranking = make_ranking(list(range(n, 0, -1)), np.ones((n, 2)))
        assert found_by(ranking, "i099", 100) is True
        assert found_by(ranking, "i099", 99) is False

    def test_found_by_rank_one_cutoff_one(self):
        assert found_by(three_item_ranking(), "a", 1) is True
        assert found_by(three_item_ranking(), "b", 1) is False

    def test_found_by_bad_cutoff(self):
        with pytest.raises(ValueError):
            found_by(three_item_ranking(), "a", 0)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 9))
    def test_found_by_monotone_in_cutoff(self, c1, c2, pos):
        ranking = make_ranking(list(range(10, 0, -1)), np.ones((10, 2)))
        target = f"i{pos:03d}"
        if c2 < c1:
            c1, c2 = c2, c1
        if found_by(ranking, target, c1):
            assert found_by(ranking, target, c2)


class TestRankingColumnsReadOnly:
    @pytest.mark.parametrize("column", ["scores", "embeddings", "query_embedding"])
    def test_in_place_write_raises(self, column):
        ranking = make_ranking([2.0, 1.0], np.eye(2), query=[1.0, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(ranking, column)[0] = 5.0

    def test_columns_are_copies_of_the_given_arrays(self):
        scores, embeddings, query = np.array([2.0, 1.0]), np.eye(2), np.array([1.0, 0.0])
        ranking = make_ranking(scores, embeddings, query=query)
        scores[0], embeddings[0, 0], query[0] = 9.0, 9.0, 9.0  # the caller's arrays stay writeable
        assert ranking.scores.tolist() == [2.0, 1.0]
        assert ranking.embeddings.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert ranking.query_embedding.tolist() == [1.0, 0.0]

    def test_built_feature_rows_cannot_go_stale(self):
        run = random_run(0)
        build_feature_matrix([run], "score", 1, run.n_turns, "single")
        with pytest.raises(ValueError, match="read-only"):
            run.turns[0].scores *= 2.0

    def test_shared_table_and_its_rows_are_read_only(self):
        table = np.arange(6.0).reshape(3, 2) + 1.0
        table.flags.writeable = False
        rows = np.array([2, 0])
        ranking = TurnRanking(1, ("a", "b"), [2.0, 1.0], table, rows=rows)
        assert ranking.item_rows is table  # shared, not copied
        rows[0] = 1  # the caller's index stays writeable and is not the ranking's
        assert ranking.rows.tolist() == [2, 0] and ranking.rows.dtype == np.intp
        assert ranking.embeddings.tolist() == [[5.0, 6.0], [1.0, 2.0]]
        for array in (ranking.rows, ranking.embeddings):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5


def _read_only(array):
    array = np.array(array)
    array.flags.writeable = False
    return array


TABLE = _read_only(np.eye(3))


class TestSharedItemTable:
    @pytest.mark.parametrize("table, rows, message", [
        (np.eye(3), [0, 1], "shared item table must be a read-only 2-D float64 array"),
        (_read_only(np.eye(3, dtype=np.float32)), [0, 1], "read-only 2-D float64"),
        (_read_only(np.ones(3)), [0, 1], "read-only 2-D float64"),
        ([[1.0, 0.0], [0.0, 1.0]], [0, 1], "read-only 2-D float64"),
        (TABLE, [-1, 0], r"rows must lie in \[0, 3\)"),
        (TABLE, [0, 3], r"rows must lie in \[0, 3\)"),
        (TABLE, [0.0, 1.0], "2 item ids need 2 integer rows, got float64 shape"),
        (TABLE, [True, False], "2 item ids need 2 integer rows, got bool shape"),
        (TABLE, [0], r"2 item ids need 2 integer rows, got int64 shape \(1,\)"),
        (TABLE, [[0, 1]], r"shape \(1, 2\)"),
    ], ids=["writable", "float32", "1-D", "list", "negative", "past-end", "float", "bool",
            "short", "2-D"])
    def test_refuses(self, table, rows, message):
        with pytest.raises(ValidationError, match=f"^turn 4: .*{message}"):
            TurnRanking(4, ("a", "b"), [2.0, 1.0], table, rows=rows)

    def test_finiteness_is_checked_on_the_referenced_rows(self):
        table = _read_only([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]])
        ranking = TurnRanking(1, ("a", "b"), [2.0, 1.0], table, rows=[2, 0])
        assert ranking.embeddings.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValidationError, match="non-finite"):
            TurnRanking(1, ("a", "b"), [2.0, 1.0], table, rows=[1, 0])

    def test_empty_ranking_has_no_embedding_columns(self):
        ranking = TurnRanking(1, (), [], TABLE, rows=np.array([], dtype=np.intp))
        assert ranking.embeddings.shape == (0, 0)
        assert TurnRanking(1, (), [], []).embeddings.shape == (0, 0)

    def test_refuses_own_rows_without_items(self):
        with pytest.raises(ValidationError, match=r"^turn 3: 0 item ids need 0 scores and 0 "):
            TurnRanking(3, (), [], [[1.0, 2.0]])

    def test_own_rows_become_a_table_that_replace_shares(self):
        own = make_ranking([2.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], query=[1.0, 0.0])
        shared = TurnRanking(1, ("a", "b"), [2.0, 1.0], TABLE, [1.0, 0.0, 0.0], rows=[2, 0])
        for ranking in (own, shared):
            bare = replace(ranking, query_embedding=None)
            assert bare.query_embedding is None
            assert np.array_equal(bare.embeddings, ranking.embeddings)
        assert own.rows.tolist() == [0, 1] and replace(own, critique="x").item_rows is own.item_rows

    def test_validates_and_compares_like_its_own_rows(self):
        shared = make_run([TurnRanking(t, ("i000", "i001"), [2.0, 1.0], TABLE, rows=[2, 0])
                           for t in (1, 2)])
        own = make_run([make_ranking([2.0, 1.0], TABLE[[2, 0]], turn=t) for t in (1, 2)])
        assert shared.dim == own.dim == 3
        assert runs_equal(shared, own)


class TestValidation:
    """Each ranking and run checks itself when it is built."""

    def _two_turns(self, first=None, second=None):
        t1 = first if first is not None else make_ranking([2.0, 1.0], np.eye(2), turn=1)
        t2 = second if second is not None else make_ranking([2.0, 1.0], np.eye(2), turn=2)
        return make_run([t1, t2])

    def test_valid_run(self):
        assert self._two_turns().dim == 2

    def test_needs_two_turns(self):
        with pytest.raises(ValidationError, match="at least 2 turns"):
            ConversationRun("c0", "i000", (make_ranking([1.0], [[1.0, 0.0]]),))

    def test_unsorted_scores(self):
        with pytest.raises(ValidationError, match="not sorted"):
            make_ranking([0.2, 0.9], np.eye(2), turn=2)

    def test_tie_breaks_by_id(self):
        with pytest.raises(ValidationError, match="not sorted"):
            make_ranking([1.0, 1.0], np.eye(2), turn=2, ids=["b", "a"])
        ok = make_ranking([1.0, 1.0], np.eye(2), turn=2, ids=["a", "b"])
        self._two_turns(second=ok)

    def test_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_ranking([2.0, 1.0], np.eye(2), turn=2, ids=["a", "a"])

    def test_non_consecutive_turns(self):
        bad = make_ranking([2.0, 1.0], np.eye(2), turn=3)
        with pytest.raises(ValidationError, match="non-consecutive"):
            self._two_turns(second=bad)

    def test_nan_score(self):
        with pytest.raises(ValidationError, match="non-finite score"):
            make_ranking([2.0, float("nan")], np.eye(2), turn=2)

    def test_zero_norm_embedding_rejected(self):
        with pytest.raises(ValidationError, match="zero-norm"):
            make_ranking([2.0, 1.0], [[1.0, 0.0], [0.0, 0.0]], turn=2)

    def test_dimension_mismatch_within_run(self):
        bad = make_ranking([1.0], [[1.0, 0.0, 0.0]], turn=2)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            self._two_turns(second=bad)

    def test_dimension_mismatch_across_runs(self):
        run_a = self._two_turns()
        run_b = make_run(
            [make_ranking([1.0], [[1.0, 0.0, 1.0]], turn=t) for t in (1, 2)], cid="c1"
        )
        with pytest.raises(ValidationError, match="dimension mismatch"):
            validate_runs([run_a, run_b])

    @pytest.mark.parametrize("query, message", [
        ([1.0, 0.0, 0.0], "dimension mismatch for query_embedding (3 vs 2)"),
        ([0.0, 0.0], "zero-norm embedding for query_embedding"),
    ], ids=["wide", "zero-norm"])
    def test_query_embedding_is_checked_against_the_items(self, query, message):
        with pytest.raises(ValidationError) as err:
            make_ranking([2.0, 1.0], np.eye(2), turn=2, query=query)
        assert str(err.value) == message

    def test_query_of_a_turn_without_items_is_checked_against_the_run(self):
        bare = TurnRanking(2, (), [], [], query_embedding=[1.0, 0.0, 0.0])
        with pytest.raises(ValidationError) as err:
            self._two_turns(second=bare)
        assert str(err.value) == "c0 turn 2: dimension mismatch for query_embedding (3 vs 2)"

    @pytest.mark.parametrize("cid, target, message", [
        ("", "i000", "conversation_id must be non-empty"),
        ("c0", "", "c0: target_id must be non-empty"),
    ], ids=["conversation", "target"])
    def test_ids_must_be_non_empty(self, cid, target, message):
        with pytest.raises(ValidationError) as err:
            ConversationRun(cid, target, self._two_turns().turns)
        assert str(err.value) == message

    def test_duplicate_conversation_ids(self):
        with pytest.raises(ValidationError, match="duplicate conversation_id"):
            validate_runs([self._two_turns(), self._two_turns()])

    def test_target_ranks_length(self):
        with pytest.raises(ValidationError, match="target_ranks length"):
            make_run(
                [make_ranking([1.0], [[1.0, 0.0]], turn=t) for t in (1, 2)],
                target_ranks=(1, 2, 3),
            )

    @pytest.mark.parametrize("ranks,bad", [((True, 1), 1), ((1, 2.0), 2), ((0, 1), 1)],
                             ids=["true", "float", "zero"])
    def test_target_rank_must_be_a_positive_int(self, ranks, bad):
        with pytest.raises(ValidationError) as err:
            make_run(
                [make_ranking([1.0], [[1.0, 0.0]], turn=t) for t in (1, 2)], target_ranks=ranks
            )
        assert str(err.value) == f"c0 turn {bad}: target rank must be a positive int or null"

    def test_all_none_target_ranks_collapse(self):
        run = make_run(
            [make_ranking([1.0], [[1.0, 0.0]], turn=t) for t in (1, 2)],
            target_ranks=(None, None),
        )
        assert run.target_ranks is None


VALID_RANKING = TurnRanking(2, ("a", "b"), [2.0, 1.0], np.eye(2), query_embedding=[1.0, 0.0])
VALID_RUN = make_run([replace(VALID_RANKING, turn=1), VALID_RANKING], target_ranks=(3, 1))
# fault -> (the valid object, the fields that differ from it, the message)
FAULTS = {
    "duplicate-id": (VALID_RANKING, dict(items=("a", "a")), "duplicate item_id 'a'"),
    "nan-score": (VALID_RANKING, dict(scores=[2.0, math.nan]), "non-finite score for item 'b'"),
    "zero-norm-row": (VALID_RANKING, dict(item_rows=[[1.0, 0.0], [0.0, 0.0]], rows=None),
                      "zero-norm embedding for item 'b'"),
    "unsorted": (VALID_RANKING, dict(scores=[1.0, 2.0]), "items not sorted by score"),
    "tie-order": (VALID_RANKING, dict(items=("b", "a"), scores=[1.0, 1.0]),
                  "items not sorted (score tie must break by item_id ascending)"),
    "query-width": (VALID_RANKING, dict(query_embedding=[1.0, 0.0, 0.0]),
                    "dimension mismatch for query_embedding (3 vs 2)"),
    "zero-norm-query": (VALID_RANKING, dict(query_embedding=[0.0, 0.0]),
                        "zero-norm embedding for query_embedding"),
    "turn-gap": (VALID_RUN, dict(turns=(VALID_RUN.turns[0], replace(VALID_RANKING, turn=3))),
                 "c0: non-consecutive turns (expected 2, got 3)"),
    "one-turn": (VALID_RUN, dict(turns=VALID_RUN.turns[:1]),
                 "c0: conversation needs at least 2 turns, got 1"),
    "empty-conversation-id": (VALID_RUN, dict(conversation_id=""),
                              "conversation_id must be non-empty"),
    "empty-target-id": (VALID_RUN, dict(target_id=""), "c0: target_id must be non-empty"),
    "target-rank-0": (VALID_RUN, dict(target_ranks=(3, 0)),
                      "c0 turn 2: target rank must be a positive int or null"),
    "target-rank-true": (VALID_RUN, dict(target_ranks=(True, 1)),
                         "c0 turn 1: target rank must be a positive int or null"),
    "target-ranks-length": (VALID_RUN, dict(target_ranks=(3, 1, 1)),
                            "c0: target_ranks length 3 != number of turns 2"),
    "short-null-ranks": (VALID_RUN, dict(target_ranks=(None,) * 5),
                         "c0: target_ranks length 5 != number of turns 2"),
    "bool-turn": (VALID_RANKING, dict(turn=True), "turn True has type bool, not int"),
    "float-turn": (VALID_RANKING, dict(turn=2.0), "turn 2.0 has type float, not int"),
    "int-item-id": (VALID_RANKING, dict(items=("a", 7)), "turn 2: item id 7 has type int, not str"),
    "int-critique": (VALID_RANKING, dict(critique=5), "turn 2: critique 5 has type int, not str"),
    "int-conversation-id": (VALID_RUN, dict(conversation_id=3),
                            "conversation_id 3 has type int, not str"),
    "int-target-id": (VALID_RUN, dict(target_id=4), "c0: target_id 4 has type int, not str"),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("build", ["construct", "replace"])
def test_invalid_cannot_be_built(fault, build):
    """A fault is refused with its message whether the ranking or run is built
    afresh or by ``dataclasses.replace`` of a valid one."""
    valid, changes, message = FAULTS[fault]
    with pytest.raises(ValidationError) as err:
        if build == "replace":
            replace(valid, **changes)
        else:
            given = {f.name: getattr(valid, f.name) for f in fields(valid) if f.init}
            type(valid)(**{**given, **changes})
    assert str(err.value) == message


def first_violation(ids, scores, embeddings):
    """Brute-force reference: walk the items in rank order and report the
    first failed check of the first bad item (duplicate id, non-finite
    score, zero-norm embedding, then order against the previous item)."""
    for k, (item_id, score, row) in enumerate(zip(ids, scores, embeddings)):
        if item_id in ids[:k]:
            return f"duplicate item_id {item_id!r}"
        if not math.isfinite(score):
            return f"non-finite score for item {item_id!r}"
        if all(x == 0.0 for x in row):
            return f"zero-norm embedding for item {item_id!r}"
        if k and scores[k - 1] < score:
            return "items not sorted by score"
        if k and scores[k - 1] == score and ids[k - 1] >= item_id:
            return "items not sorted (score tie must break by item_id ascending)"
    return None


@st.composite
def first_turns(draw):
    """A ranking that is valid only sometimes: few distinct scores force ties,
    a small id alphabet forces duplicates, and NaN scores and zero rows appear."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    score = st.sampled_from([0.0, 0.5, 1.0, 2.0, float("nan")]) | st.floats(-3.0, 3.0)
    scores = draw(st.lists(score, min_size=n, max_size=n))
    if draw(st.booleans()):
        scores = sorted(scores, key=lambda x: -x if x == x else 0.0)
    ids = draw(st.lists(st.sampled_from("abcdefghijklmnopqrstuvwxyz"), min_size=n, max_size=n))
    if draw(st.booleans()):
        ids = sorted(ids)
    entries = st.sampled_from([-1.0, 0.5, 2.0, 0.0, -0.0])
    nonzero = st.lists(entries, min_size=dim, max_size=dim).filter(any)
    row = st.integers(0, 9).flatmap(lambda k: st.just([0.0] * dim) if k == 0 else nonzero)
    embeddings = draw(st.lists(row, min_size=n, max_size=n))
    return ids, scores, embeddings


class TestValidationProperty:
    @given(first_turns(), st.integers(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, first, extra_dim):
        ids, scores, embeddings = first
        dim = len(embeddings[0])
        second_dim = dim + extra_dim
        expected = first_violation(ids, scores, embeddings)
        if expected is None and extra_dim:
            expected = f"c0 turn 2: dimension mismatch for item 'z' ({second_dim} vs {dim})"

        def build():
            return make_run([
                make_ranking(scores, embeddings, turn=1, ids=ids),
                make_ranking([1.0], [[1.0] * second_dim], turn=2, ids=["z"]),
            ])

        if expected is None:
            assert build().dim == dim
        else:
            with pytest.raises(ValidationError) as err:
                build()
            assert str(err.value) == expected


@pytest.mark.parametrize(
    "value,expected",
    [(0.0, 0), (0.49, 0), (0.5, 1), (1.5, 2), (2.5, 3), (3.0, 3), (2.9999, 3)],
)
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected


RUNS = [random_run(1, cid="c1"), random_run(2, cid="c2")]
LABELS = LabelSet({"c1": (0, 1, 1), "c2": (0, 0, 0)}, "missing_target", 5, frozenset({"c2"}))
FEATURES = build_feature_matrix(RUNS, "score", 2)
REPORT = EvalReport(
    rows=[ReportRow("apr", "lasso", "base", "multi", 2, 3, 20, 0.625, 8)],
    predictions=[PredictionRecord("apr|lasso|base|multi|2,3|cutoff20", "c1", 1, 0)],
)


def _runs_view(runs):
    return [oracle_run_dict(r) for r in runs]


def _labels_view(labels):
    return labels.labels, labels.scenario, labels.cutoff, labels.forced


def _read_features(path):
    _, records = read_csv(path, "feature")
    return [(cid, predictor, int(turn), [float(v) for v in values])
            for cid, predictor, turn, *values in records]


def _features_view(matrix):
    return [(cid, matrix.predictor, matrix.upto_turn, row)
            for cid, row in zip(matrix.conversation_ids, matrix.values.tolist())]


# artefact -> (writer, reader, written object, view of what was read, expected view)
ARTEFACTS = {
    "runs": (write_runs, read_runs, RUNS, _runs_view, _runs_view(RUNS)),
    "labels": (write_labels, read_labels, LABELS, _labels_view, _labels_view(LABELS)),
    "features": (write_features, _read_features, FEATURES, list, _features_view(FEATURES)),
    "report": (write_report, read_report, REPORT, list, REPORT.rows),
    "predictions": (write_predictions, read_predictions, REPORT, list, REPORT.predictions),
}


class TestArtefactFraming:
    @pytest.mark.parametrize("kind", sorted(ARTEFACTS))
    def test_multiline_header_roundtrips(self, kind, tmp_path):
        write, read, obj, view, expected = ARTEFACTS[kind]
        path = tmp_path / f"{kind}.out"
        write(obj, path, header_comment="convpred test seed=3\n# already a comment\nlast line")
        lines = path.read_text().splitlines()
        assert lines[:3] == ["# convpred test seed=3", "# already a comment", "# last line"]
        assert not lines[3].startswith("#")
        assert view(read(path)) == expected

    @pytest.mark.parametrize("kind", ["labels", "features", "report", "predictions"])
    @pytest.mark.parametrize("content", ["", "# only a header comment\n"])
    def test_empty_file_names_the_file(self, kind, content, tmp_path):
        read = ARTEFACTS[kind][1]
        path = tmp_path / f"empty_{kind}.csv"
        path.write_text(content)
        with pytest.raises(ValidationError, match=f"empty_{kind}.csv"):
            read(path)
