import re

import numpy as np
import pytest

from convpred.core import TurnRanking, ValidationError, round_half_up, runs_equal
from convpred.data_io import GenConfig, generate_synthetic, write_runs
from convpred.features import assemble_multiturn
from convpred.scenario import (
    LabelSet,
    identify_easy,
    induce_missing,
    label_runs,
    read_labels,
    write_labels,
)
from helpers import make_ranking, make_run


def run_with_target_entry(entry_turn, n_turns=6, cid="c0"):
    """Target sits at rank 1 from entry_turn onward, absent before."""
    turns = []
    for t in range(1, n_turns + 1):
        if t >= entry_turn:
            scores, ids = [2.0, 1.0], ["target", "other"]
        else:
            scores, ids = [2.0, 1.0], ["filler", "other"]
        turns.append(make_ranking(scores, np.eye(2), turn=t, ids=ids))
    return make_run(turns, cid=cid, target="target")


class TestLabelRuns:
    def test_cumulative_rule(self):
        labels = label_runs([run_with_target_entry(4)], cutoff=1)
        assert labels.labels["c0"] == (0, 0, 0, 1, 1, 1)

    def test_never_found(self):
        labels = label_runs([run_with_target_entry(99)], cutoff=1)
        assert labels.labels["c0"] == (0,) * 6

    def test_cutoff_one_uses_rank_one_hits_only(self):
        turns = [
            make_ranking([2.0, 1.0], np.eye(2), turn=1, ids=["other", "target"]),
            make_ranking([2.0, 1.0], np.eye(2), turn=2, ids=["target", "other"]),
        ]
        run = make_run(turns, target="target")
        assert label_runs([run], cutoff=1).labels["c0"] == (0, 1)
        assert label_runs([run], cutoff=2).labels["c0"] == (1, 1)

    def test_target_ranks_fallback_when_depth_shallow(self):
        turns = [make_ranking([2.0, 1.0], np.eye(2), turn=t, ids=["a", "b"]) for t in (1, 2)]
        run = make_run(turns, target="target", target_ranks=(40, 3))
        labels = label_runs([run], cutoff=10)
        assert labels.labels["c0"] == (0, 1)

    def test_insufficient_depth_error(self):
        turns = [make_ranking([2.0, 1.0], np.eye(2), turn=t, ids=["a", "b"]) for t in (1, 2)]
        run = make_run(turns, target="target")
        with pytest.raises(ValidationError, match="insufficient depth"):
            label_runs([run], cutoff=10)

    def test_monotone_labels_on_generated_runs(self):
        runs = generate_synthetic(
            GenConfig(n_conversations=12, dim=4, catalogue_size=100, n_turns=5, top_n=20, seed=2)
        )
        labels = label_runs(runs, cutoff=20)
        for vec in labels.labels.values():
            assert all(a <= b for a, b in zip(vec, vec[1:]))


class TestIdentifyEasy:
    def test_mixed_fixture(self):
        runs = [run_with_target_entry(2 if i < 6 else 99, cid=f"c{i}") for i in range(10)]
        labels = label_runs(runs, cutoff=1)
        assert identify_easy(labels) == {f"c{i}" for i in range(6)}

    def test_all_and_none(self):
        runs_all = [run_with_target_entry(1, cid=f"c{i}") for i in range(3)]
        assert identify_easy(label_runs(runs_all, cutoff=1)) == {"c0", "c1", "c2"}
        runs_none = [run_with_target_entry(99, cid=f"c{i}") for i in range(3)]
        assert identify_easy(label_runs(runs_none, cutoff=1)) == set()

    def test_requires_base_labels(self):
        labels = LabelSet(labels={"c0": (1, 1)}, scenario="missing_target")
        with pytest.raises(ValueError):
            identify_easy(labels)


class TestInduceMissing:
    def _fixture(self, n_easy=10, n_hard=4):
        runs = [run_with_target_entry(2, cid=f"e{i}") for i in range(n_easy)]
        runs += [run_with_target_entry(99, cid=f"h{i}") for i in range(n_hard)]
        labels = label_runs(runs, cutoff=1)
        return runs, labels

    def test_forced_count(self):
        runs, labels = self._fixture(n_easy=10)
        _, missing = induce_missing(runs, labels, fraction=0.3, seed=0)
        assert len(missing.forced) == 3
        assert missing.scenario == "missing_target"

    def test_forced_targets_absent_everywhere(self):
        runs, labels = self._fixture()
        modified, missing = induce_missing(runs, labels, fraction=0.3, seed=1)
        by_id = {run.conversation_id: run for run in modified}
        for cid in missing.forced:
            run = by_id[cid]
            for ranking in run.turns:
                assert run.target_id not in ranking.items
            assert run.target_ranks is None
            assert missing.labels[cid] == (0,) * run.n_turns

    def test_unselected_untouched(self):
        runs, labels = self._fixture()
        modified, missing = induce_missing(runs, labels, fraction=0.3, seed=2)
        for original, new in zip(runs, modified):
            if original.conversation_id not in missing.forced:
                assert new is original
                assert missing.labels[original.conversation_id] == labels.labels[original.conversation_id]

    def test_unselected_byte_identical_on_write(self, tmp_path):
        runs, labels = self._fixture(n_easy=6, n_hard=2)
        modified, missing = induce_missing(runs, labels, fraction=0.5, seed=3)
        original_path, modified_path = tmp_path / "orig.jsonl", tmp_path / "mod.jsonl"
        write_runs(runs, original_path)
        write_runs(modified, modified_path)
        original_lines = original_path.read_text().splitlines()
        modified_lines = modified_path.read_text().splitlines()
        for run, before, after in zip(runs, original_lines, modified_lines):
            if run.conversation_id not in missing.forced:
                assert before == after
            else:
                assert before != after

    def test_fraction_zero_identity(self):
        runs, labels = self._fixture()
        modified, missing = induce_missing(runs, labels, fraction=0.0, seed=4)
        assert all(new is old for new, old in zip(modified, runs))
        assert missing.labels == labels.labels
        assert missing.forced == frozenset()

    def test_fraction_validation(self):
        runs, labels = self._fixture()
        with pytest.raises(ValueError):
            induce_missing(runs, labels, fraction=1.5)

    def test_needs_an_easy_conversation(self):
        runs, labels = self._fixture(n_easy=0)
        with pytest.raises(ValueError, match="^no easy conversations: nothing to induce from$"):
            induce_missing(runs, labels, fraction=0.5)

    def test_seeded_determinism(self):
        runs, labels = self._fixture()
        _, a = induce_missing(runs, labels, fraction=0.3, seed=7)
        _, b = induce_missing(runs, labels, fraction=0.3, seed=7)
        assert a.forced == b.forced

    def test_recomputed_features_differ_only_on_forced(self):
        cfg = GenConfig(n_conversations=10, dim=4, catalogue_size=60, n_turns=4,
                        top_n=10, easy_fraction=0.8, pull_rate_easy=0.9,
                        noise_sigma=0.05, seed=5)
        runs = generate_synthetic(cfg)
        labels = label_runs(runs, cutoff=10)
        modified, missing = induce_missing(runs, labels, fraction=0.4, seed=5)
        for original, new in zip(runs, modified):
            before = assemble_multiturn(original, "wand", 4, top_n=10)
            after = assemble_multiturn(new, "wand", 4, top_n=10)
            target_seen = any(original.target_id in r.items[:10] for r in original.turns)
            if original.conversation_id in missing.forced and target_seen:
                assert not np.array_equal(before, after)
            else:
                assert np.array_equal(before, after)


class TestSharedItemTable:
    def test_generated_rankings_share_one_table_and_induction_keeps_it(self):
        cfg = GenConfig(n_conversations=12, dim=4, catalogue_size=60, n_turns=4,
                        top_n=10, easy_fraction=0.8, pull_rate_easy=0.9, seed=5)
        runs = generate_synthetic(cfg)
        modified, missing = induce_missing(runs, label_runs(runs, cutoff=10), fraction=0.5, seed=5)
        assert missing.forced
        tables = {id(ranking.item_rows) for run in runs + modified for ranking in run.turns}
        assert len(tables) == 1
        for original, new in zip(runs, modified):
            for before, after in zip(original.turns, new.turns):
                forced = original.conversation_id in missing.forced
                keep = [not forced or item != original.target_id for item in before.items]
                assert after.rows.tolist() == before.rows[keep].tolist()

    @pytest.mark.parametrize("shared", [False, True], ids=["own-rows", "shared-table"])
    def test_deleting_the_only_item_leaves_no_embedding_columns(self, shared):
        table = np.eye(2)
        table.flags.writeable = False
        turns = [
            TurnRanking(t, ("target",), [1.0], table, rows=[1]) if shared
            else make_ranking([1.0], table[1:], turn=t, ids=["target"])
            for t in (1, 2)
        ]
        runs = [make_run(turns, target="target")]
        modified, _ = induce_missing(runs, label_runs(runs, cutoff=1), fraction=1.0)
        for ranking in modified[0].turns:
            assert ranking.items == ()
            assert ranking.embeddings.shape == (0, 0)


class TestLabelFiles:
    def test_roundtrip(self, tmp_path):
        runs = [run_with_target_entry(2 if i % 2 else 99, cid=f"c{i}") for i in range(6)]
        base = label_runs(runs, cutoff=1)
        _, missing = induce_missing(runs, base, fraction=0.5, seed=1)
        path = tmp_path / "labels.csv"
        write_labels(missing, path, header_comment="scenario test")
        back = read_labels(path)
        assert back.labels == missing.labels
        assert back.scenario == "missing_target"
        assert back.cutoff == 1
        assert back.forced == missing.forced

    def test_refuses_to_write_label_vectors_of_different_lengths(self, tmp_path):
        labels = LabelSet(labels={"c0": (0, 1), "c1": (1,)})
        with pytest.raises(ValidationError, match="^label vectors must cover the same number of turns$"):
            write_labels(labels, tmp_path / "labels.csv")

    def test_header(self, tmp_path):
        runs = [run_with_target_entry(2)]
        labels = label_runs(runs, cutoff=1)
        path = tmp_path / "labels.csv"
        write_labels(labels, path)
        header = path.read_text().splitlines()[0]
        assert header == "conversation_id,scenario,cutoff,forced,k1,k2,k3,k4,k5,k6"

    @pytest.mark.parametrize("rows, message", [
        ("c0,base,1,0,0,2\nc1,base,1,0,0,1\n", "record 1: k2 must be 0 or 1, got '2'"),
        ("c0,base,1,0,0,1\nc1,base,1,0,x,1\n", "record 2: k1 must be 0 or 1, got 'x'"),
        ("c0,base,1,0,0,1\nc1,base,1,0,1\n", "record 2: 5 field(s), the header names 6"),
        ("c0,base,1,0,0,1\nc0,base,1,0,1,1\nc1,base,1,0,0,0\n",
         "duplicate conversation_id 'c0'"),
        ("c0,base,1,0,0,1\nc1,missing_target,1,0,0,1\n",
         "labels file must hold one scenario/cutoff block"),
    ], ids=["label 2", "label x", "short row", "repeated id", "two blocks"])
    def test_rejects_bad_record(self, tmp_path, rows, message):
        path = tmp_path / "labels.csv"
        path.write_text("conversation_id,scenario,cutoff,forced,k1,k2\n" + rows)
        with pytest.raises(ValidationError, match=re.escape(f"labels.csv: {message}")):
            read_labels(path)

    @pytest.mark.parametrize("header, rows", [
        ("conversation_id,scenario,cutoff,forced,k1,kx", "c0,base,1,0,0,1\n"),
        ("conversation_id,scenario,cutoff,forced,k2,k1", "c0,base,1,0,1,0\n"),
        ("conversation_id,scenario,cutoff,forced", "c0,base,1,0\n"),
        ("conversation_id,scenario,cutoff", "c0,base,1\n"),
    ], ids=["misnamed", "reordered", "no turn columns", "no forced column"])
    def test_rejects_a_header_other_than_the_declared_columns(self, tmp_path, header, rows):
        path = tmp_path / "labels.csv"
        path.write_text(f"# labels\n{header}\n{rows}")
        with pytest.raises(ValidationError) as err:
            read_labels(path)
        assert str(err.value) == f"labels.csv: unexpected labels header {header.split(',')}"

    @pytest.mark.parametrize("vec, column", [("1,0,0", "k2"), ("0,1,0", "k3"), ("1,1,0", "k3")])
    def test_refuses_labels_that_fall_back_to_zero(self, tmp_path, vec, column):
        path = tmp_path / "labels.csv"
        path.write_text("conversation_id,scenario,cutoff,forced,k1,k2,k3\n"
                        f"c0,base,1,0,0,1,1\nc1,base,1,0,{vec}\n")
        with pytest.raises(ValidationError) as err:
            read_labels(path)
        assert str(err.value) == f"labels.csv: record 2: {column} falls back to 0; labels are cumulative"


@pytest.mark.parametrize("n_easy,fraction,expected", [(10, 0.3, 3), (5, 0.3, 2), (7, 0.5, 4)])
def test_forced_count_rounding(n_easy, fraction, expected):
    assert round_half_up(fraction * n_easy) == expected
