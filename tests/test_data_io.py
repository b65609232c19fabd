import hashlib
import json
import math
import re
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpred import data_io
from convpred.cli import main
from convpred.core import TurnRanking, ValidationError, runs_equal, stored_rank, validate_runs
from convpred.data_io import (
    GenConfig,
    calibration_config,
    generate_synthetic,
    read_runs,
    write_runs,
)
from helpers import make_ranking, make_run, oracle_run_dict, random_run
from oracles import generate_brute, run_from_record_brute


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig(n_conversations=10, dim=4, catalogue_size=500)
        assert cfg.n_turns == 10
        assert cfg.top_n == 100
        assert cfg.pull_decay == 1.0

    def test_top_n_exceeds_catalogue(self):
        with pytest.raises(ValidationError):
            GenConfig(n_conversations=10, dim=4, catalogue_size=50, top_n=51)

    def test_needs_two_turns(self):
        with pytest.raises(ValidationError):
            GenConfig(n_conversations=10, dim=4, catalogue_size=200, n_turns=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"easy_fraction": 1.2},
            {"pull_rate_easy": 0.0},
            {"pull_rate_hard": 1.0},
            {"noise_sigma": -0.1},
            {"pull_decay": 0.0},
            {"noise_sigma": math.nan},
            {"noise_sigma": math.inf},
            {"n_conversations": 0},
            {"dim": 0},
            {"catalogue_size": 0},
            {"seed": -1},
        ],
    )
    def test_bad_rates(self, kwargs):
        with pytest.raises(ValidationError):
            GenConfig(**{"n_conversations": 10, "dim": 4, "catalogue_size": 200, **kwargs})

    @pytest.mark.parametrize("field,value", [
        ("n_conversations", 2.5), ("dim", True), ("catalogue_size", "200"), ("n_turns", 3.0),
        ("top_n", np.int64(10)),
    ])
    def test_count_that_is_not_an_int_names_the_field(self, field, value):
        expected = f"{field} {value!r} has type {type(value).__name__}, not int"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            GenConfig(**{"n_conversations": 10, "dim": 4, "catalogue_size": 200, field: value})

    @pytest.mark.parametrize("seed", [True, 1.5, -2, "3"])
    def test_seed_takes_the_one_seed_rule(self, seed):
        with pytest.raises(ValidationError, match=f"^seed {re.escape(repr(seed))} is not a non-negative integer$"):
            GenConfig(n_conversations=10, dim=4, catalogue_size=200, seed=seed)


SMALL = dict(n_conversations=6, dim=5, catalogue_size=40, n_turns=4, top_n=10, seed=3)


class TestRoundTrip:
    def test_hand_built(self, tmp_path):
        runs = [
            random_run(0, cid="c0", with_query=True, with_ranks=True, with_critique=True),
            random_run(1, cid="c1"),
        ]
        path = tmp_path / "runs.jsonl"
        write_runs(runs, path)
        back = read_runs(path)
        assert len(back) == 2
        assert all(runs_equal(a, b) for a, b in zip(runs, back))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        runs = [
            random_run(
                int(rng.integers(2**31)),
                n_turns=int(rng.integers(2, 5)),
                n_items=int(rng.integers(1, 5)),
                dim=3,
                cid=f"c{i}",
                with_query=bool(rng.integers(2)),
                with_ranks=bool(rng.integers(2)),
                with_critique=bool(rng.integers(2)),
            )
            for i in range(int(rng.integers(1, 4)))
        ]
        path = tmp_path_factory.mktemp("rt") / "runs.jsonl"
        write_runs(runs, path)
        back = read_runs(path)
        assert len(back) == len(runs)
        assert all(runs_equal(a, b) for a, b in zip(runs, back))

    def test_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_runs([], path)
        assert path.read_text() == ""
        assert read_runs(path) == []

    def test_nan_score_refused(self):
        with pytest.raises(ValidationError, match="non-finite"):
            make_ranking([float("nan")], [[1.0, 0.0]], turn=2)

    def test_repeated_conversation_id_refused_before_writing(self, tmp_path):
        run = random_run(0)
        path = tmp_path / "bad.jsonl"
        with pytest.raises(ValidationError, match="duplicate conversation_id 'c0'"):
            write_runs([run, run], path)
        assert not path.exists()

    def test_header_comment_skipped(self, tmp_path):
        runs = [random_run(5)]
        path = tmp_path / "runs.jsonl"
        write_runs(runs, path, header_comment="gen seed=5")
        first = path.read_text().splitlines()[0]
        assert first.startswith("#") and "seed=5" in first
        assert runs_equal(read_runs(path)[0], runs[0])


def _canonical(record) -> str:
    """A run file line in the writer's layout: no whitespace, keys in order."""
    return json.dumps(record, separators=(",", ":"))


class TestReadValidation:
    def _write_lines(self, tmp_path, lines):
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def _record(**overrides):
        record = {
            "conversation_id": "c0",
            "target_id": "i000",
            "target_ranks": [1, 1],
            "turns": [
                {
                    "turn": t,
                    "query_embedding": None,
                    "critique": None,
                    "items": [
                        {"id": "i000", "score": 2.0, "embedding": [1.0, 0.0]},
                        {"id": "i001", "score": 1.0, "embedding": [0.0, 1.0]},
                    ],
                }
                for t in (1, 2)
            ],
        }
        record.update(overrides)
        return record

    def test_well_formed(self, tmp_path):
        a = self._record()
        b = self._record(conversation_id="c1")
        path = self._write_lines(tmp_path, [json.dumps(a), json.dumps(b)])
        assert len(read_runs(path)) == 2

    def test_unsorted_items(self, tmp_path):
        bad = self._record()
        bad["turns"][1]["items"] = [
            {"id": "i000", "score": 0.2, "embedding": [1.0, 0.0]},
            {"id": "i001", "score": 0.9, "embedding": [0.0, 1.0]},
        ]
        path = self._write_lines(tmp_path, [json.dumps(bad)])
        with pytest.raises(ValidationError, match="not sorted"):
            read_runs(path)

    def test_dimension_mismatch_across_lines(self, tmp_path):
        a = self._record()
        b = self._record(conversation_id="c1")
        for turn in b["turns"]:
            for item in turn["items"]:
                item["embedding"] = [1.0, 0.0, 0.0, 0.0, 1.0]
        path = self._write_lines(tmp_path, [json.dumps(a), json.dumps(b)])
        with pytest.raises(ValidationError, match="dimension mismatch"):
            read_runs(path)

    def test_non_consecutive_turns(self, tmp_path):
        bad = self._record()
        bad["turns"][1]["turn"] = 5
        path = self._write_lines(tmp_path, [json.dumps(bad)])
        with pytest.raises(ValidationError, match="non-consecutive"):
            read_runs(path)

    def test_invalid_json(self, tmp_path):
        path = self._write_lines(tmp_path, ["{not json"])
        with pytest.raises(ValidationError, match="invalid JSON"):
            read_runs(path)

    def test_invalid_json_column_counts_leading_spaces(self, tmp_path):
        line = '   {"conversation_id": x}'
        with pytest.raises(json.JSONDecodeError, match=r"column 24 \(char 23\)"):
            json.loads(line)
        path = self._write_lines(tmp_path, [line])
        with pytest.raises(ValidationError, match=r"line 1: invalid JSON \(.* column 24 \(char 23\)\)$"):
            read_runs(path)

    def test_missing_key(self, tmp_path):
        bad = self._record()
        del bad["target_id"]
        path = self._write_lines(tmp_path, [json.dumps(bad)])
        with pytest.raises(ValidationError, match="malformed"):
            read_runs(path)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            pytest.param("score", "abc", "c0 turn 2: scores must be JSON numbers", id="score-abc"),
            pytest.param("embedding", ["abc", 1.0], "c0 turn 2: embedding must be JSON numbers",
                         id="embedding-value1"),
            pytest.param("score", "2.5", "c0 turn 2: scores must be JSON numbers", id="score-2.5"),
            pytest.param("score", True, "c0 turn 2: scores must be JSON numbers", id="score-true"),
            pytest.param("score", 10**400, "int too large to convert to float",
                         id="score-beyond-float"),
            pytest.param("embedding", ["1.0", "0.0"], "c0 turn 2: embedding must be JSON numbers",
                         id="embedding-strings"),
            pytest.param("embedding", [True, 0.0], "c0 turn 2: embedding must be JSON numbers",
                         id="embedding-true"),
            pytest.param("embedding", [10**400, 0.0], "int too large to convert to float",
                         id="embedding-beyond-float"),
            pytest.param("query_embedding", ["1.0", "0.0"],
                         "c0 turn 2: query_embedding must be JSON numbers", id="query-strings"),
            pytest.param("query_embedding", [False, 1.0],
                         "c0 turn 2: query_embedding must be JSON numbers", id="query-false"),
        ],
    )
    def test_non_numeric_value_names_file_and_line(self, tmp_path, field, value, message):
        bad = self._record()
        target = bad["turns"][1] if field == "query_embedding" else bad["turns"][1]["items"][0]
        target[field] = value
        for layout in (json.dumps, _canonical):
            path = self._write_lines(tmp_path, ["# header", layout(bad)])
            with pytest.raises(ValidationError) as err:
                read_runs(path)
            assert str(err.value).startswith("runs.jsonl line 2: malformed run record (")
            assert message in str(err.value)

    @pytest.mark.parametrize("layout", [json.dumps, _canonical])
    @pytest.mark.parametrize("turn", [1.9, 1.0, "1", True])
    def test_turn_must_be_a_json_integer(self, tmp_path, layout, turn):
        bad = self._record()
        bad["turns"][0]["turn"] = turn
        path = self._write_lines(tmp_path, [layout(bad)])
        with pytest.raises(ValidationError) as err:
            read_runs(path)
        assert str(err.value) == (
            "runs.jsonl line 1: malformed run record "
            f"(c0: turn must be a JSON integer, got {turn!r})"
        )

    @pytest.mark.parametrize("layout", [json.dumps, _canonical])
    @pytest.mark.parametrize("field,value,message", [
        pytest.param("conversation_id", 5, "conversation_id must be a JSON string, got 5",
                     id="conversation_id-5"),
        pytest.param("target_id", 5, "target_id must be a JSON string, got 5", id="target_id-5"),
        pytest.param("id", 5, "c0 turn 2: item id must be a JSON string, got 5", id="item-id-5"),
        pytest.param("critique", 7, "c0 turn 2: critique must be a JSON string, got 7",
                     id="critique-7"),
        pytest.param("critique", ["x"], "c0 turn 2: critique must be a JSON string, got ['x']",
                     id="critique-list"),
    ])
    def test_string_fields_must_be_json_strings(self, tmp_path, layout, field, value, message):
        bad = self._record()
        target = {"id": bad["turns"][1]["items"][0], "critique": bad["turns"][1]}.get(field, bad)
        target[field] = value
        path = self._write_lines(tmp_path, [layout(bad)])
        with pytest.raises(ValidationError) as err:
            read_runs(path)
        assert str(err.value) == f"runs.jsonl line 1: malformed run record ({message})"

    @pytest.mark.parametrize("layout", [json.dumps, _canonical])
    @pytest.mark.parametrize("first,second,message", [
        (5, None, "c0 turn 1: item id must be a JSON string, got 5"),
        (None, 5, "'id'"),
    ], ids=["number-then-none", "none-then-number"])
    def test_first_bad_item_id_is_named(self, tmp_path, layout, first, second, message):
        """Of a turn's bad item ids, the first in item order is the one named."""
        bad = self._record()
        for item, value in zip(bad["turns"][0]["items"], (first, second)):
            if value is None:
                del item["id"]
            else:
                item["id"] = value
        path = self._write_lines(tmp_path, [layout(bad)])
        with pytest.raises(ValidationError) as err:
            read_runs(path)
        assert str(err.value) == f"runs.jsonl line 1: malformed run record ({message})"

    def test_unclosed_arrays_are_refused_at_once(self, tmp_path):
        """A 280 KB line of 20,000 unclosed ``,"embedding":[`` reads to the JSON
        error in milliseconds; a split whose failed matches ran to the line's
        end took 34 s on it."""
        path = self._write_lines(tmp_path, ['{"a":1' + ',"embedding":[' * 20_000 + "}"])
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"^runs\.jsonl line 1: invalid JSON \("):
            read_runs(path)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("opening", ['{"id":"', '{"id":"a","score":', '{"id":"\\\\',
                                         '{"id":"a","score":1,"embedding":['])
    def test_unclosed_items_are_refused_at_once(self, tmp_path, opening):
        """20,000 items cut off at each of the item cut's separators, with a
        ``]`` at the line's end, read to the JSON error in milliseconds: each
        try of the split stops at the next quote, comma or ``]``."""
        path = self._write_lines(tmp_path, ['{"a":1' + opening * 20_000 + ',"embedding":[]}'])
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"^runs\.jsonl line 1: invalid JSON \("):
            read_runs(path)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("layout", [json.dumps, _canonical])
    @pytest.mark.parametrize("ranks, message", [
        ([True, 1], "c0 turn 1: target rank must be a positive int or null"),
        ([None], "c0: target_ranks length 1 != number of turns 2"),
    ], ids=["boolean", "short-nulls"])
    def test_bad_target_ranks_are_refused(self, tmp_path, layout, ranks, message):
        path = self._write_lines(tmp_path, [layout(self._record(target_ranks=ranks))])
        with pytest.raises(ValidationError) as err:
            read_runs(path)
        assert str(err.value) == f"runs.jsonl line 1: {message}"

    def test_validation_errors_name_the_file_and_line(self, tmp_path):
        """A ranking or run fault is refused at its own line, before a later
        line's bad JSON. Checks across runs run after the whole file parses,
        and name the line of the run at fault: a repeated id's second
        occurrence, the first line whose dimension differs."""
        unsorted = self._record(conversation_id="c1")
        unsorted["turns"][0]["items"].reverse()
        wide = self._record(conversation_id="c2")
        for turn in wide["turns"]:
            for item in turn["items"]:
                item["embedding"] = [1.0, 0.0, 0.0]
        cases = [
            ([self._record(), self._record(conversation_id="c1"), self._record()],
             "runs.jsonl line 4: duplicate conversation_id 'c0'"),
            ([self._record(), unsorted],
             "runs.jsonl line 3: c1 turn 1: items not sorted by score"),
            ([self._record(), wide, self._record(conversation_id="c3"),
              wide | {"conversation_id": "c4"}],
             "runs.jsonl line 3: c2: dimension mismatch across runs (3 vs 2)"),
            ([unsorted, self._record(), "{not json"],
             "runs.jsonl line 2: c1 turn 1: items not sorted by score"),
        ]
        for records, message in cases:
            for layout in (json.dumps, _canonical):
                lines = ["# header"] + [r if isinstance(r, str) else layout(r) for r in records]
                path = self._write_lines(tmp_path, lines)
                with pytest.raises(ValidationError) as err:
                    read_runs(path)
                assert str(err.value).startswith(message)

    @pytest.mark.parametrize("layout", [json.dumps, _canonical])
    @pytest.mark.parametrize("field,value,message", [
        pytest.param("query_embedding", [math.inf, 0.0], "query_embedding has non-finite entries",
                     id="query-inf"),
        pytest.param("query_embedding", [], "query_embedding must be a non-empty 1-D vector",
                     id="query-empty"),
        pytest.param("embedding", [1.0, math.inf], "embedding has non-finite entries",
                     id="item-inf"),
        pytest.param("embedding", [], "embedding must be a non-empty 1-D vector",
                     id="items-empty"),
    ])
    def test_ranking_errors_name_the_conversation_and_turn(self, tmp_path, layout, field, value,
                                                            message):
        """The checks a ranking makes of its own vectors name the conversation,
        the turn and whether the query or an item row is at fault."""
        bad = self._record()
        for target in [bad["turns"][1]] if field == "query_embedding" else bad["turns"][1]["items"]:
            target[field] = value
        path = self._write_lines(tmp_path, [layout(bad)])
        with pytest.raises(ValidationError) as err:
            read_runs(path)
        assert str(err.value) == f"runs.jsonl line 1: c0 turn 2: {message}"

    def test_ragged_embeddings_within_a_turn(self, tmp_path):
        bad = self._record()
        bad["turns"][1]["items"][1]["embedding"] = [0.0, 1.0, 0.0]
        for layout in (json.dumps, _canonical):
            path = self._write_lines(tmp_path, [layout(bad)])
            with pytest.raises(ValidationError, match="dimension mismatch") as err:
                read_runs(path)
            assert "c0 turn 2" in str(err.value)
            assert "inhomogeneous" not in str(err.value)


# Written by hand: awkward floats (0.1, 1e-300, the smallest subnormal, -0.0 in a
# non-zero row), a score tie broken by id, null and non-null query vectors and
# critiques, all-null and partly null target ranks.
RUN_FILE_BODY = (
    '{"conversation_id":"c0","target_id":"b","target_ranks":[null,null],"turns":['
    '{"turn":1,"query_embedding":null,"critique":null,"items":['
    '{"id":"a","score":0.75,"embedding":[0.1,-0.0,1e-300]},'
    '{"id":"b","score":0.75,"embedding":[5e-324,1.0,-0.0]},'
    '{"id":"c","score":1e-300,"embedding":[-2.5,0.0,0.0]}]},'
    '{"turn":2,"query_embedding":[0.5,-0.0,0.0],"critique":"more like a","items":['
    '{"id":"b","score":0.1,"embedding":[5e-324,1.0,-0.0]}]}]}\n'
    '{"conversation_id":"c1","target_id":"x","target_ranks":[3,null],"turns":['
    '{"turn":1,"query_embedding":null,"critique":"cheaper","items":['
    '{"id":"x","score":-0.0,"embedding":[0.0,3.0,1e-300]}]},'
    '{"turn":2,"query_embedding":null,"critique":null,"items":[]}]}\n'
)


def test_run_file_round_trips_byte_for_byte(tmp_path):
    source = tmp_path / "hand.jsonl"
    source.write_text("# written by hand\n" + RUN_FILE_BODY)
    copy = tmp_path / "copy.jsonl"
    write_runs(read_runs(source), copy)
    assert copy.read_text() == RUN_FILE_BODY


# Small pools make ids recur across turns and conversations with other rows,
# and rows recur under other ids. Each row's first entry is a normal float so
# its norm is non-zero; the second may be a signed zero or a subnormal.
_TEXT = st.text(alphabet="aé日\"\\\n\u2028😀", min_size=1, max_size=3)
_ROWS = st.tuples(
    st.sampled_from([1.0, -1.5, 0.1, 1e150]),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 0.5]),
)
_SCORES = st.sampled_from([0.0, -0.0, 5e-324, 0.75, -1e-300, 2.0])


@st.composite
def _run_sets(draw, text=_TEXT):
    ids = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(_ROWS, min_size=1, max_size=3))
    runs = []
    for c in range(draw(st.integers(1, 3))):
        turns = []
        n_turns = draw(st.integers(2, 3))
        for t in range(1, n_turns + 1):
            picked = draw(st.lists(st.sampled_from(ids), max_size=len(ids), unique=True))
            ranked = sorted(((draw(_SCORES), i) for i in picked), key=lambda p: (-p[0], p[1]))
            turns.append(make_ranking(
                [score for score, _ in ranked],
                [list(draw(st.sampled_from(rows))) for _ in ranked],
                turn=t,
                ids=[i for _, i in ranked],
                query=draw(st.none() | st.sampled_from(rows).map(list)),
                critique=draw(st.none() | text),
            ))
        ranks = draw(st.none() | st.lists(st.none() | st.integers(1, 10**6),
                                          min_size=n_turns, max_size=n_turns))
        runs.append(make_run(turns, cid=f"c{c}{draw(text)}", target=draw(text),
                             target_ranks=ranks))
    return runs


@given(runs=_run_sets())
@settings(max_examples=200, deadline=None)
def test_each_written_line_equals_the_reference_serializer(tmp_path_factory, runs):
    path = tmp_path_factory.mktemp("oracle") / "runs.jsonl"
    write_runs(runs, path)
    expected = [
        json.dumps(oracle_run_dict(run), separators=(",", ":"), allow_nan=False) for run in runs
    ]
    assert path.read_text(encoding="utf-8").split("\n") == expected + [""]


@st.composite
def _loosely_typed_runs(draw):
    """The fields of a run whose turns may be bools, floats or numpy ints, whose ids and
    critiques may be ints or numpy strings, and whose all-null ranks may be short."""
    n_turns = draw(st.integers(2, 3))
    turns = []
    for t in range(1, n_turns + 1):
        n = draw(st.integers(0, 2))
        turns.append(dict(
            turn=draw(st.sampled_from([t, t == 1, float(t), np.int64(t)])),
            ids=[draw(st.sampled_from([f"i{k}", k, np.str_(f"i{k}")])) for k in range(n)],
            critique=draw(st.sampled_from([None, "more", 5, np.str_("less")])),
            n=n,
        ))
    ranks = draw(st.none() | st.integers(0, 4).map(lambda k: [None] * k)
                 | st.lists(st.none() | st.integers(1, 9), min_size=n_turns, max_size=n_turns))
    return dict(turns=turns, cid=draw(st.sampled_from(["c0", 3, np.str_("c0")])),
                target=draw(st.sampled_from(["i0", 4])), ranks=ranks)


@given(fields=_loosely_typed_runs())
@settings(max_examples=200, deadline=None)
def test_a_run_is_refused_when_built_or_reads_back_as_written(tmp_path_factory, fields):
    try:
        run = make_run(
            [make_ranking([float(2 - k) for k in range(turn["n"])],
                          [[1.0, float(k)] for k in range(turn["n"])],
                          turn=turn["turn"], ids=turn["ids"], critique=turn["critique"])
             for turn in fields["turns"]],
            cid=fields["cid"], target=fields["target"], target_ranks=fields["ranks"],
        )
    except ValidationError:
        return
    path = tmp_path_factory.mktemp("typed") / "runs.jsonl"
    write_runs([run], path)
    assert runs_equal(read_runs(path)[0], run)


def _reference_read(path):
    """The plain reader: ``json.loads`` on each line, a run from each dict by the
    package-independent oracle, then the record checks."""
    runs, lines = [], []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if line.strip() and not line.startswith("#"):
            where = f"{path.name} line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: invalid JSON ({exc})") from exc
            runs.append(run_from_record_brute(obj, where))
            lines.append(where)
    validate_runs(runs, lines)
    return runs


def _outcome(read, path):
    try:
        return read(path), None
    except ValidationError as exc:
        return None, str(exc)


_ITEM_0 = '{"id":"i000","score":2.0,"embedding":[1.0,0.0]}'


_MUTATIONS = st.sampled_from([
    ",", ":", "[", "]", "{", "}", '"', " ", "\\", "0", "-", ".", "e",
    '"embedding"', '"embedding":', ',"embedding":[1.0,0.0]', ',"embedding":[0.0,1.0]',
    '{"id":"', '","score":', "]}", "},{", "-0", "1E400", "1" + "0" * 399,
    "true", "NaN", "1e400", "-1e400", "[1e400]", "null", "",
    '\\"', "\\\\", "\\n", "\\u00e9", "\\u0065", '"embe\\u0064ding":[1.0,0.0]', "\\ud83d\\ude00",
])


def _same_runs(got, want) -> bool:
    """``runs_equal`` for each pair, and the same score and embedding bytes, so a
    -0.0 read for a 0 shows."""
    return len(got) == len(want) and all(
        runs_equal(a, b) and all(
            ta.scores.tobytes() == tb.scores.tobytes()
            and ta.embeddings.tobytes() == tb.embeddings.tobytes()
            for ta, tb in zip(a.turns, b.turns)
        )
        for a, b in zip(got, want)
    )


class TestDecodeOnceMatchesJsonLoads:
    """Lines in the writer's layout read as ``json.loads`` would read them."""

    def _canonical_text(self):
        record = TestReadValidation._record()
        other = TestReadValidation._record(conversation_id="c1")
        return _canonical(record), _canonical(other)

    @pytest.mark.parametrize(
        "old,new",
        [
            ("[0.0,1.0]}]}]", "[0.0,1.0,0.0]}]}]"),  # ragged rows within turn 2
            ("[0.0,1.0]}]}]", "[0.0,true]}]}]"),  # a non-numeric embedding
            ("[0.0,1.0]}]}]", '[0.0,"1.0"]}]}]'),
            ("[0.0,1.0]}]}]", "[0.0,,1.0]}]}]"),  # not JSON
            ("[0.0,1.0]}]}]", "[0.0,1.0]2}]}]"),
            ("[0.0,1.0]}]}]", "[0.0,1.0]}]}],"),
            ("[0.0,1.0]}]}]", "[0.0,[1.0]]}]}]"),
            ("[0.0,1.0]}]}]", "[]}]}]"),  # an empty row
            ("[0.0,1.0]}]}]", "[0.0,1e400]}]}]"),  # beyond float range
            (_ITEM_0, _ITEM_0[:-1] + ',"embedding":[3.0,4.0]}'),  # the last key wins
            (_ITEM_0, _ITEM_0.replace("[1.0,0.0]", "[1.0,0.0,5.0]", 1)[:-1]
             + ',"embedding":[3.0,4.0]}'),
            (_ITEM_0, _ITEM_0.replace('"i000"', '"\\u0069000"')),  # an escaped id: a duplicate
            (_ITEM_0, _ITEM_0.replace('"embedding"', '"embe\\u0064ding"')),  # an escaped key
            (_ITEM_0, _ITEM_0.replace('"score":2.0,', "").replace("}", ',"score":2.0}')),
            ('"critique":null', '"critique":"embedding"'),
            ('"critique":null', '"embedding":[7.0,7.0],"critique":null'),
            # an array not closed before the next one, or before the end of the line
            (_ITEM_0, _ITEM_0.replace("[1.0,0.0]", "[1.0,0.0")),
            ("[0.0,1.0]}]}]", "[0.0,1.0}}}"),
            ("[0.0,1.0]}]}]", "[0.0,1.0]]}]"),  # an item not closed where its array ends
            ('"critique":null', '"critique":"more]"'),  # a ] that ends no array
            ('"critique":null', '"critique":"[1.0,0.0]"'),
            # the first bad id in item order is the one named: a number, then no id at all
            (_ITEM_0 + ',{"id":"i001",', _ITEM_0.replace('"i000"', "5") + ",{"),
            (_ITEM_0 + ',{"id":"i001",', _ITEM_0.replace('"id":"i000",', "") + ',{"id":5,'),
            # scores: an integer -0 reads as 0, a -0.0 keeps its sign; beyond float range
            ('"score":1.0', '"score":-0'),
            ('"score":1.0', '"score":-0.0'),
            ('"score":2.0', '"score":1E400'),
            ('"score":2.0', '"score":1' + "0" * 399),
            (_ITEM_0, _ITEM_0[:-1] + ',"rank":1}'),  # an item with a fourth key
            # a critique that spells a whole item, escaped as the writer escapes it
            ('"critique":null', '"critique":"{\\"id\\":\\"i9\\",\\"score\\":1,'
                                '\\"embedding\\":[1.0,0.0]}"'),
            ('"i000"', '"i000\\u00e9"'),  # an id with the writer's escape of an accented letter
            # an item where no item belongs, and a literal in its place among the items
            ('"query_embedding":null,"critique":null,"items":[' + _ITEM_0,
             '"query_embedding":' + _ITEM_0 + ',"critique":null,"items":[0'),
            ('"target_ranks":[1,1]', '"target_ranks":[' + _ITEM_0 + ",1]"),
            ('"critique":null', '"critique":"' + _ITEM_0 + '"'),  # an item inside a string
            ('"critique":null,"items":[', '"critique":"' + _ITEM_0 + '","items":[NaN,'),
        ],
    )
    def test_edited_canonical_line(self, tmp_path, old, new):
        first, second = self._canonical_text()
        assert old in first
        path = tmp_path / "runs.jsonl"
        path.write_text(f"# header\n{first.replace(old, new)}\n{second}\n", encoding="utf-8")
        got, got_error = _outcome(read_runs, path)
        want, want_error = _outcome(_reference_read, path)
        assert got_error == want_error
        if want is not None:
            assert _same_runs(got, want)

    @given(edits=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.integers(0, 4), _MUTATIONS), min_size=1, max_size=3,
    ))
    @settings(max_examples=300, deadline=None)
    def test_mutated_canonical_lines_read_as_json_loads_reads_them(self, tmp_path_factory, edits):
        """Canonical lines with splices of JSON punctuation, embedding keys and
        arrays, the item cut's separators, ``true``, ``NaN``, ``-0`` and numbers
        beyond float range: the item cut and plain ``json.loads`` give the same
        runs or the same error text."""
        first, second = self._canonical_text()
        lines = [first, second]
        for where, cut, text in edits:
            at = round(where * (len(lines[0]) + len(lines[1])))
            k = 0 if at <= len(lines[0]) else 1
            at -= k * len(lines[0])
            lines[k] = lines[k][:at] + text + lines[k][at + cut:]
        path = tmp_path_factory.mktemp("mutated") / "runs.jsonl"
        path.write_text("# header\n" + "\n".join(lines) + "\n", encoding="utf-8")
        got, got_error = _outcome(read_runs, path)
        with mock.patch.object(data_io, "_decode_line", lambda text, table: None):
            want, want_error = _outcome(read_runs, path)  # every line through json.loads
        assert got_error == want_error
        if want is not None:
            assert _same_runs(got, want)

    def test_canonical_lines_take_the_decode_once_path(self):
        first, second = self._canonical_text()
        table = data_io._ItemTable()
        obj = data_io._decode_line(first, table)
        assert table.index == {"1.0,0.0": 0, "0.0,1.0": 1}
        assert table.ids == {'"i000"': "i000", '"i001"': "i001"}
        ids, scores, rows, index = obj["turns"][1]["items"]  # turn 2's item columns
        assert ids == ("i000", "i001") and scores.tolist() == [2.0, 1.0] and index.tolist() == [0, 1]
        assert rows.tolist() == [[1.0, 0.0], [0.0, 1.0]] and not rows.flags.writeable
        again = data_io._decode_line(second, table)["turns"][0]["items"]
        assert again[2] is rows and again[0][0] is ids[0]  # its rows and ids are all known
        assert table.index == {"1.0,0.0": 0, "0.0,1.0": 1}
        for spaced in (json.dumps(json.loads(first)), first.replace('"c0"', '"\\u0063\\u0030"')):
            assert data_io._decode_line(spaced, data_io._ItemTable()) is None
        # the writer's escapes of a non-ASCII letter and of a quote decode, in ids too
        for old, new, cid, critique in [('"c0"', '"c0\\u00e9"', "c0é", None),
                                        ('"critique":null', '"critique":"\\"c0\\""', "c0", '"c0"')]:
            obj = data_io._decode_line(first.replace(old, new, 1), data_io._ItemTable())
            assert (obj["conversation_id"], obj["turns"][0]["critique"]) == (cid, critique)
        obj = data_io._decode_line(first.replace('"i001"', '"i\\"\\u00e9"'), data_io._ItemTable())
        assert obj["turns"][1]["items"][0] == ("i000", 'i"é')

    def test_integer_minus_zero_scores_read_as_zero(self):
        first, _ = self._canonical_text()
        for literal, sign in [("-0", False), ("-0.0", True), ("0", False)]:
            obj = data_io._decode_line(first.replace('"score":1.0', f'"score":{literal}'),
                                       data_io._ItemTable())
            scores = obj["turns"][0]["items"][1]
            assert scores.tolist() == [2.0, 0.0] and bool(np.signbit(scores[1])) is sign

    @pytest.mark.parametrize("old,new", [
        ('"c0"', '"c\\u0030"'),  # a \u escape of an ASCII character
        ("[0.0,1.0]", '[0.0,"1"]'),  # a new array text holding a quote or a bracket
        ("[0.0,1.0]", "[0.0,[1]]"),
        ('"score":2.0', '"score":1E400'),  # a score not finite as a float
        ('"score":2.0', '"score":1' + "0" * 400),
        ('"items":[' + _ITEM_0 + ",", '"items":[0,'),  # a literal among the items
        ('"critique":null', '"critique":' + _ITEM_0),  # an item outside the items
        ('"critique":null', '"critique":NaN'),  # a NaN or Infinity of the line's own
        ('"critique":null', '"critique":Infinity'),
        (_ITEM_0, _ITEM_0[:-1] + ',"rank":1}'),  # an item not cut
    ])
    def test_item_cut_declines(self, old, new):
        """Lines the item cut cannot show to read as ``json.loads`` reads them go to
        ``json.loads``: ``_decode_line`` returns None."""
        first, _ = self._canonical_text()
        assert old in first
        assert data_io._decode_line(first.replace(old, new, 1), data_io._ItemTable()) is None

    @pytest.mark.parametrize("wide", [["[0.0,1.0]"], ["[1.0,0.0]", "[0.0,1.0]"]],
                             ids=["one-row", "every-row"])
    def test_second_line_wider_than_the_table(self, tmp_path, wide):
        """A line whose new rows are wider than the rows read before it reads
        through ``json.loads``, to its error."""
        first, second = self._canonical_text()
        for row in wide:
            second = second.replace(row, row[:-1] + ",0.5]")
        path = tmp_path / "runs.jsonl"
        path.write_text(f"{first}\n{second}\n", encoding="utf-8")
        got, got_error = _outcome(read_runs, path)
        want, want_error = _outcome(_reference_read, path)
        assert got is want is None
        assert got_error == want_error and "dimension mismatch" in got_error

    # ids and critiques from _TEXT need escapes, which the decode-once path reads too
    @given(
        runs=_run_sets() | _run_sets(text=st.text(alphabet="ab ,:[]{}", min_size=1, max_size=3)),
        order=st.permutations(["id", "score", "embedding"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_other_layouts_read_to_the_same_runs(self, tmp_path_factory, runs, order):
        folder = tmp_path_factory.mktemp("layouts")
        canonical = folder / "canonical.jsonl"
        write_runs(runs, canonical, header_comment="layouts")
        records = [json.loads(line) for line in canonical.read_text().split("\n")[1:-1]]
        spaced, reordered = folder / "spaced.jsonl", folder / "reordered.jsonl"
        spaced.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        for rec in records:
            for turn in rec["turns"]:
                turn["items"] = [{key: item[key] for key in order} for item in turn["items"]]
        reordered.write_text("".join(_canonical(rec) + "\n" for rec in records))
        for path in (canonical, spaced, reordered):
            back = read_runs(path)
            assert len(back) == len(runs) and all(runs_equal(a, b) for a, b in zip(runs, back))


def test_every_line_of_a_benchmark_shaped_file_takes_the_item_cut(tmp_path):
    """10 generated conversations at seed 1 without query vectors, the ingest
    benchmark's input: with the plain path's item reader made to raise, the
    file still reads, so no line of it declined to ``json.loads``."""
    config = GenConfig(n_conversations=10, dim=32, catalogue_size=2000, seed=1)
    runs = [replace(run, turns=tuple(replace(t, query_embedding=None) for t in run.turns))
            for run in generate_synthetic(config)]
    path = tmp_path / "runs.jsonl"
    write_runs(runs, path, header_comment="external-style runs seed=1")
    with mock.patch.object(data_io, "_item_columns", side_effect=AssertionError("plain path")):
        back = read_runs(path)
    assert _same_runs(back, runs)


def test_generated_file_round_trips_byte_for_byte(tmp_path):
    source = tmp_path / "gen.jsonl"
    assert main(["gen", "--n", "20", "--seed", "3", "--out", str(source)]) == 0
    text = source.read_text(encoding="utf-8")
    header = "".join(line for line in text.splitlines(keepends=True) if line.startswith("#"))
    copy = tmp_path / "copy.jsonl"
    write_runs(read_runs(source), copy, header_comment=header)
    assert copy.read_bytes() == source.read_bytes()


def _traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def long_line(tmp_path_factory):
    """One conversation of 40 turns over a 100-item table, a 2.7 MB line,
    written once for the writer's and the reader's memory tests; returns the
    file and the writer's traced peak."""
    rng = np.random.default_rng(0)
    table = rng.standard_normal((100, 32))
    table.flags.writeable = False
    turns = []
    for t in range(1, 41):
        order = rng.permutation(100)
        scores = np.sort(rng.random(100))[::-1]
        turns.append(TurnRanking(t, tuple(f"i{k:03d}" for k in order), scores, table, rows=order))
    path = tmp_path_factory.mktemp("long") / "long.jsonl"
    _, peak = _traced_peak(lambda: write_runs([make_run(turns)], path))
    return path, peak


def test_writer_holds_no_whole_line(long_line):
    """Written turn by turn, the writer's traced peak stays under a quarter of the line."""
    path, peak = long_line
    data = path.read_bytes()
    assert peak < len(data) / 4
    assert hashlib.sha256(data).hexdigest() == (
        "42bc7d21b8d5e2b2558843acad5c4ccd1c022510bafd739ee3bc5ca7dfa87b5e"
    )


def test_reader_holds_few_copies_of_a_line(long_line):
    """The line as read, one split into array texts and tails, and a skeleton
    of the rest: the reader's traced peak stays under 3.5 times the line
    (2.8 measured; 4.8 when the split and the slices each copied the line)."""
    path, _ = long_line
    runs, peak = _traced_peak(lambda: read_runs(path))
    assert len(runs) == 1 and runs[0].n_turns == 40
    assert peak < 3.5 * path.stat().st_size


def test_reader_shares_one_table_per_file(tmp_path):
    """50 conversations of 10 turns hold 500 top-100 rankings over 2000 distinct rows.
    Copies of their rows would take 12.8 MB; the file's one table takes 0.5 MB,
    about 2 MB with the buffers its doubling leaves. One string per item
    occurrence would take 2.9 MB; one per distinct id takes 0.1 MB."""
    path = tmp_path / "runs.jsonl"
    write_runs(generate_synthetic(replace(calibration_config(seed=7), n_conversations=50)), path)
    tracemalloc.start()
    try:
        runs = read_runs(path)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < 5e6  # 3.5 MB measured; 6.4 MB with a string per occurrence
    assert len({id(item) for run in runs for ranking in run.turns for item in ranking.items}) == 2000
    views = {id(ranking.item_rows): ranking.item_rows for run in runs for ranking in run.turns}
    assert len(views) <= len(runs)  # a line's rankings share one view
    last = runs[-1].turns[-1].item_rows
    assert len(last) == 2000
    for view in views.values():  # each a read-only view of a prefix of the file's table
        assert view.base is not None and not view.flags.writeable
        assert np.array_equal(view, last[: len(view)])


def test_accented_ids_read_into_one_shared_table(tmp_path):
    """The writer escapes an accented letter (``é`` as ``\\u00e9``); such lines
    still decode each distinct row once, into the file's one table."""
    runs = []
    for run in generate_synthetic(GenConfig(**{**SMALL, "n_conversations": 20, "seed": 1})):
        old = run.turns[0].items[0]  # renamed in every turn, so one id per conversation
        turns = tuple(replace(ranking, items=tuple(i + "é" if i == old else i for i in ranking.items))
                      for ranking in run.turns)
        runs.append(replace(run, turns=turns))
    path = tmp_path / "accented.jsonl"
    write_runs(runs, path)
    assert "\\u00e9" in path.read_text(encoding="utf-8")
    back = read_runs(path)
    assert all(runs_equal(a, b) for a, b in zip(runs, back))
    last = back[-1].turns[-1].item_rows
    for ranking in (ranking for run in back for ranking in run.turns):
        view = ranking.item_rows
        assert view.base is not None and np.array_equal(view, last[: len(view)])


class TestGenerator:
    def test_seeded_determinism_byte_identical(self, tmp_path):
        cfg = GenConfig(**SMALL)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_runs(generate_synthetic(cfg), a)
        write_runs(generate_synthetic(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        base = generate_synthetic(GenConfig(**SMALL))
        other = generate_synthetic(GenConfig(**{**SMALL, "seed": 4}))
        assert not all(runs_equal(x, y) for x, y in zip(base, other))

    def test_degenerate_pull_puts_target_first(self):
        cfg = GenConfig(
            n_conversations=5,
            dim=6,
            catalogue_size=30,
            n_turns=3,
            top_n=5,
            easy_fraction=1.0,
            pull_rate_easy=1.0,
            noise_sigma=0.0,
            seed=9,
        )
        for run in generate_synthetic(cfg):
            assert run.target_ranks == (1,) * 3
            for ranking in run.turns:
                assert ranking.items[0] == run.target_id

    def test_shapes_and_sorting(self):
        runs = generate_synthetic(GenConfig(**SMALL))
        assert len(runs) == SMALL["n_conversations"]
        for run in runs:
            assert run.n_turns == SMALL["n_turns"]
            assert len(run.target_ranks) == SMALL["n_turns"]
            for ranking in run.turns:
                assert len(ranking.items) == SMALL["top_n"]
                scores = ranking.scores.tolist()
                assert scores == sorted(scores, reverse=True)
                assert ranking.query_embedding is not None
                assert np.isclose(np.linalg.norm(ranking.query_embedding), 1.0)

    def test_target_rank_consistent_with_stored_ranking(self):
        runs = generate_synthetic(GenConfig(**SMALL))
        for run in runs:
            for ranking, rank in zip(run.turns, run.target_ranks):
                in_top = rank <= SMALL["top_n"]
                assert stored_rank(ranking, run.target_id) == (rank if in_top else None)


    def test_rankings_index_one_catalogue_table(self):
        """50 conversations of 10 turns hold 500 top-100 rankings; copies of their rows
        would take 12.8 MB, the one 2000 x 32 table 0.5 MB."""
        config = replace(calibration_config(seed=7), n_conversations=50)
        tracemalloc.start()
        try:
            runs = generate_synthetic(config)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert live < 5e6
        assert len({id(ranking.item_rows) for run in runs for ranking in run.turns}) == 1


@st.composite
def tie_heavy_configs(draw):
    """Small generator configs; at dim 1 every catalogue row is +1 or -1, so scores tie."""
    catalogue_size = draw(st.integers(1, 60))
    return GenConfig(
        n_conversations=draw(st.integers(1, 3)),
        dim=draw(st.sampled_from([1, 1, 1, 2, 3])),
        catalogue_size=catalogue_size,
        n_turns=draw(st.integers(2, 4)),
        top_n=draw(st.integers(1, catalogue_size)),
        easy_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        pull_rate_easy=draw(st.sampled_from([0.35, 1.0])),
        noise_sigma=draw(st.sampled_from([0.0, 0.15, 2.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(tie_heavy_configs())
def test_generator_matches_full_sort(config):
    runs, expected = generate_synthetic(config), generate_brute(config)
    assert len(runs) == len(expected)
    for run, oracle in zip(runs, expected):
        assert runs_equal(run, oracle)
        assert run.target_ranks == oracle.target_ranks


@pytest.mark.slow
def test_calibration_found_fraction_in_band():
    from convpred.scenario import label_runs

    runs = generate_synthetic(calibration_config(seed=0))
    labels = label_runs(runs, cutoff=100)
    fraction = sum(labels.final_labels().values()) / len(runs)
    assert 0.55 <= fraction <= 0.85
