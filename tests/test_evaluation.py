from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpred import features
from convpred.core import ValidationError
from convpred.data_io import GenConfig, generate_synthetic
from convpred.evaluation import (
    EvalReport,
    EvalSettings,
    PredictionRecord,
    accuracy,
    cutoff_sensitivity,
    mcnemar,
    paired_predictions,
    parse_pairs,
    read_predictions,
    read_report,
    run_single_turn,
    run_turn_pair,
    split_conversations,
    write_predictions,
    write_report,
)
from convpred.features import FeatureTable, turn_features
from convpred.scenario import induce_missing, label_runs


SMALL_GEN = GenConfig(
    n_conversations=24, dim=4, catalogue_size=300, n_turns=6, top_n=50,
    easy_fraction=0.5, pull_rate_easy=0.6, pull_rate_hard=0.01, noise_sigma=0.1, seed=13,
)
SETTINGS = EvalSettings(top_n=50, ae_epochs=15, n_trees=10, lasso_iters=100, logistic_iters=100)


@pytest.fixture(scope="module")
def small_world():
    runs = generate_synthetic(SMALL_GEN)
    labels = label_runs(runs, cutoff=20)
    split = split_conversations(
        [r.conversation_id for r in runs], labels.final_labels(), seed=13
    )
    return runs, labels, split


class TestSplit:
    def _ids_labels(self, n, n_found):
        ids = [f"c{i}" for i in range(n)]
        labels = {cid: int(i < n_found) for i, cid in enumerate(ids)}
        return ids, labels

    def test_seventy_thirty_at_200(self):
        ids, labels = self._ids_labels(200, 100)
        split = split_conversations(ids, labels, seed=0)
        assert len(split.train_ids) == 140
        assert len(split.test_ids) == 60

    def test_same_seed_identical(self):
        ids, labels = self._ids_labels(50, 20)
        a = split_conversations(ids, labels, seed=4)
        b = split_conversations(ids, labels, seed=4)
        assert a == b

    def test_stratified_class_balance(self):
        ids, labels = self._ids_labels(200, 100)
        split = split_conversations(ids, labels, seed=1, stratified=True)
        train_found = sum(labels[c] for c in split.train_ids)
        assert train_found == 70
        assert len(split.train_ids) == 140

    def test_fallback_on_tiny_class(self):
        ids, labels = self._ids_labels(10, 1)
        split = split_conversations(ids, labels, seed=2, stratified=True)
        assert split.stratified is False
        assert split.warnings

    @given(st.integers(2, 40), st.integers(0, 40), st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_partition_and_size(self, n, n_found, seed):
        n_found = min(n_found, n)
        ids, labels = self._ids_labels(n, n_found)
        split = split_conversations(ids, labels, seed=seed)
        assert set(split.train_ids) | set(split.test_ids) == set(ids)
        assert not set(split.train_ids) & set(split.test_ids)
        assert len(split.train_ids) == int(np.floor(0.7 * n + 0.5))

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_conversations(["c0"], {"c0": 1})

    @pytest.mark.parametrize("ratio, side", [(0.96, "test"), (0.04, "train")])
    def test_ratio_leaving_a_side_empty(self, ratio, side):
        ids, labels = self._ids_labels(10, 5)
        with pytest.raises(ValueError, match=f"{ratio} leaves the {side} side empty for 10 conv"):
            split_conversations(ids, labels, ratio=ratio)


class TestParsePairs:
    @pytest.mark.parametrize("text, pairs", [("3", ((3, 4),)), ("2-4", ((2, 3), (3, 4), (4, 5)))])
    def test_ranges(self, text, pairs):
        assert parse_pairs(text) == pairs

    @pytest.mark.parametrize("text", ["x", "", "0-3", "4-2", "-3", "2-x"])
    def test_bad_ranges(self, text):
        with pytest.raises(ValidationError, match="bad --pairs range"):
            parse_pairs(text)


class TestTurnPair:
    def test_row_and_prediction_counts(self, small_world):
        runs, labels, split = small_world
        pairs = [(t, t + 1) for t in range(2, 6)]
        report = run_turn_pair(runs, labels, "wand", "logreg", split, pairs=pairs,
                               settings=SETTINGS, seed=1)
        assert len(report.rows) == 4
        assert len(report.predictions) == 4 * len(split.test_ids)

    def test_accuracy_recomputable_from_records(self, small_world):
        runs, labels, split = small_world
        report = run_turn_pair(runs, labels, "score", "forest", split, pairs=[(3, 4)],
                               settings=SETTINGS, seed=2)
        row = report.rows[0]
        records = [r for r in report.predictions if r.cell_id.startswith("score|forest")]
        recomputed = sum(r.predicted == r.actual for r in records) / len(records)
        assert recomputed == row.accuracy

    def test_pair_clipping(self, small_world):
        runs, labels, split = small_world
        report = run_turn_pair(runs, labels, "wand", "lasso", split,
                               settings=SETTINGS, seed=3)  # default grid 2..9 clipped to 6 turns
        assert [(r.turn_train, r.turn_eval) for r in report.rows] == [
            (2, 3), (3, 4), (4, 5), (5, 6)]

    def test_ae_requires_ae_head(self, small_world):
        runs, labels, split = small_world
        with pytest.raises(ValueError, match="ae-head"):
            run_turn_pair(runs, labels, "ae", "forest", split, settings=SETTINGS)

    def test_unknown_names(self, small_world):
        runs, labels, split = small_world
        with pytest.raises(ValueError, match="unknown predictor"):
            run_turn_pair(runs, labels, "nope", "forest", split, settings=SETTINGS)
        with pytest.raises(ValueError, match="unknown classifier"):
            run_turn_pair(runs, labels, "wand", "nope", split, pairs=[(2, 3)], settings=SETTINGS)

    def test_misaligned_labels(self, small_world):
        runs, labels, split = small_world
        partial = {cid: vec for cid, vec in labels.labels.items() if cid != split.test_ids[0]}
        broken = type(labels)(labels=partial, scenario="base", cutoff=labels.cutoff)
        with pytest.raises(ValidationError, match="labels missing"):
            run_turn_pair(runs, broken, "wand", "logreg", split, pairs=[(2, 3)], settings=SETTINGS)

    def test_deterministic_reports(self, small_world):
        runs, labels, split = small_world
        kwargs = dict(pairs=[(2, 3), (4, 5)], settings=SETTINGS, seed=9)
        a = run_turn_pair(runs, labels, "ae", "ae-head", split, **kwargs)
        b = run_turn_pair(runs, labels, "ae", "ae-head", split, **kwargs)
        assert a.rows == b.rows
        assert a.predictions == b.predictions


@pytest.fixture(scope="module")
def both_scenarios(small_world):
    runs, labels, split = small_world
    modified, missing = induce_missing(runs, labels, fraction=0.5, seed=3)
    assert 0 < len(missing.forced) < len(runs)
    missing_split = split_conversations(
        [r.conversation_id for r in modified], missing.final_labels(), seed=13
    )
    return (runs, labels, split), (modified, missing, missing_split)


TABLE_ROWS = [("apr", "logreg"), ("score", "forest"), ("ae", "ae-head")]
TABLE_PAIRS = [(2, 3), (3, 4)]


class TestFeatureTable:
    def test_shared_table_matches_fresh_tables(self, both_scenarios):
        shared = FeatureTable()
        for runs, labels, split in both_scenarios:
            for predictor, classifier in TABLE_ROWS:
                kwargs = dict(pairs=TABLE_PAIRS, settings=SETTINGS, seed=11)
                fresh = run_turn_pair(runs, labels, predictor, classifier, split, **kwargs)
                reused = run_turn_pair(runs, labels, predictor, classifier, split,
                                       table=shared, **kwargs)
                assert reused.rows == fresh.rows
                assert reused.predictions == fresh.predictions
            for kind in ("apr", "score", "pooled"):
                for turn in (1, 2, 3):
                    assert np.array_equal(
                        shared.block(runs, kind, turn, 50),
                        FeatureTable().block(runs, kind, turn, 50),
                    )

    def test_each_row_computed_once(self, both_scenarios, monkeypatch):
        calls = Counter()

        def counted(run, kind, turn, top_n=100):
            calls[(id(run), kind, turn, top_n)] += 1
            return turn_features(run, kind, turn, top_n)

        monkeypatch.setattr(features, "turn_features", counted)
        table = FeatureTable()
        for _ in range(2):
            for runs, labels, split in both_scenarios:
                for predictor, classifier in TABLE_ROWS:
                    run_turn_pair(runs, labels, predictor, classifier, split, pairs=TABLE_PAIRS,
                                  settings=SETTINGS, seed=11, table=table)
                table.block(runs, "score", 2, 20)
        (runs, _, _), (modified, missing, _) = both_scenarios
        distinct = {id(run) for run in runs + modified}
        assert len(distinct) == len(runs) + len(missing.forced)
        expected = {(rid, kind, turn, 50) for rid in distinct
                    for kind in ("apr", "score", "pooled") for turn in (1, 2, 3)}
        expected |= {(rid, "score", 2, 20) for rid in distinct}
        assert set(calls) == expected
        assert set(calls.values()) == {1}

    def test_replaced_run_gets_its_own_rows(self, both_scenarios):
        (runs, _, _), (modified, missing, _) = both_scenarios
        table = FeatureTable()
        before = table.block(runs, "score", 6, 50)
        after = table.block(modified, "score", 6, 50)
        for i, (run, new) in enumerate(zip(runs, modified)):
            if run.conversation_id in missing.forced:
                assert new is not run
                assert np.array_equal(after[i], turn_features(new, "score", 6, 50))
                assert not np.array_equal(after[i], before[i])
            else:
                assert new is run
                assert np.array_equal(after[i], before[i])


class TestSingleTurn:
    def test_single_width_is_per_turn(self, small_world):
        runs, labels, split = small_world
        multi = run_turn_pair(runs, labels, "score", "logreg", split, pairs=[(3, 4)],
                              settings=SETTINGS, seed=4)
        single = run_single_turn(runs, labels, "score", "logreg", split, pairs=[(3, 4)],
                                 settings=SETTINGS, seed=4)
        assert multi.rows[0].mode == "multi"
        assert single.rows[0].mode == "single"

    def test_turn_one_protocols_coincide(self, small_world):
        runs, labels, split = small_world
        multi = run_turn_pair(runs, labels, "wand", "logreg", split, pairs=[(1, 2)],
                              settings=SETTINGS, seed=5)
        single = run_single_turn(runs, labels, "wand", "logreg", split, pairs=[(1, 2)],
                                 settings=SETTINGS, seed=5)
        assert multi.rows[0].accuracy == single.rows[0].accuracy
        assert [(p.conversation_id, p.predicted) for p in multi.predictions] == [
            (p.conversation_id, p.predicted) for p in single.predictions
        ]


class TestAccuracy:
    def test_examples(self):
        assert accuracy([1, 1], [1, 1]) == 1.0
        assert accuracy([1, 0], [0, 1]) == 0.0
        assert accuracy([1, 1, 0, 0], [1, 1, 0, 1]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])


class TestMcNemar:
    def _vectors(self, b, c, n_both=5):
        """Build predictions with exactly b (a right, b wrong) and c (reverse)."""
        actuals, pa, pb = [], [], []
        for _ in range(b):
            actuals.append(1), pa.append(1), pb.append(0)
        for _ in range(c):
            actuals.append(1), pa.append(0), pb.append(1)
        for _ in range(n_both):
            actuals.append(0), pa.append(0), pb.append(0)
        return pa, pb, actuals

    def test_hand_computed_cases(self):
        pa, pb, actual = self._vectors(10, 0)
        assert mcnemar(pa, pb, actual) == (8.1, True)
        pa, pb, actual = self._vectors(5, 5)
        assert mcnemar(pa, pb, actual) == (0.1, False)
        pa, pb, actual = self._vectors(0, 0)
        assert mcnemar(pa, pb, actual) == (0.0, False)

    def test_identical_predictions(self):
        preds = [0, 1, 1, 0]
        assert mcnemar(preds, preds, [0, 1, 0, 0]) == (0.0, False)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        pa = rng.integers(0, 2, n)
        pb = rng.integers(0, 2, n)
        actual = rng.integers(0, 2, n)
        chi_ab, sig_ab = mcnemar(pa, pb, actual)
        chi_ba, sig_ba = mcnemar(pb, pa, actual)
        assert chi_ab == chi_ba
        assert sig_ab == sig_ba

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mcnemar([1, 0], [1], [1, 0])


class TestCutoffSensitivity:
    def test_three_rows_and_monotone_ground_truth(self, small_world):
        runs, _, split = small_world
        report = cutoff_sensitivity(runs, split, cutoffs=(1, 20, 100), pair=(4, 5),
                                    settings=SETTINGS, seed=6)
        assert [r.cutoff for r in report.rows] == [1, 20, 100]
        assert all(r.mode == "single" for r in report.rows)
        found_counts = [
            sum(label_runs(runs, cutoff=c).final_labels().values()) for c in (1, 20, 100)
        ]
        assert found_counts == sorted(found_counts)

    def test_rows_use_relabeled_ground_truth(self, small_world):
        runs, _, split = small_world
        report = cutoff_sensitivity(runs, split, cutoffs=(1, 100), pair=(4, 5),
                                    settings=SETTINGS, seed=7)
        by_cutoff = {}
        for rec in report.predictions:
            cutoff = int(rec.cell_id.rsplit("cutoff", 1)[1])
            by_cutoff.setdefault(cutoff, {})[rec.conversation_id] = rec.actual
        for cutoff, actuals in by_cutoff.items():
            expected = label_runs(runs, cutoff=cutoff)
            for cid, actual in actuals.items():
                assert actual == expected.label_at(cid, 5)


class TestReportFiles:
    def test_report_roundtrip(self, small_world, tmp_path):
        runs, labels, split = small_world
        report = run_turn_pair(runs, labels, "apr", "lasso", split, pairs=[(2, 3)],
                               settings=SETTINGS, seed=8)
        rpath, ppath = tmp_path / "report.csv", tmp_path / "preds.csv"
        write_report(report, rpath, header_comment="eval test")
        write_predictions(report, ppath, header_comment="eval test")
        rows = read_report(rpath)
        assert rows == report.rows
        records = read_predictions(ppath)
        assert records == report.predictions

    def test_report_header(self, tmp_path):
        write_report(EvalReport(), tmp_path / "empty.csv")
        header = (tmp_path / "empty.csv").read_text().splitlines()[0]
        assert header == "predictor,classifier,scenario,mode,turn_train,turn_eval,cutoff,accuracy,n_test"


class TestPairedPredictions:
    CELL_A = "wand|logreg|base|multi|2,3|cutoff20"
    CELL_B = "ae|ae-head|base|multi|2,3|cutoff20"

    def _records(self, cell, rows):
        return [PredictionRecord(cell, cid, p, a) for cid, p, a in rows]

    def test_pairs_on_cell_and_conversation(self):
        a = self._records(self.CELL_A, [("c1", 1, 1), ("c0", 0, 1)])
        b = self._records(self.CELL_B, [("c0", 1, 1), ("c1", 0, 1)])
        assert paired_predictions(a, b) == {"base|multi|2,3|cutoff20": ([0, 1], [1, 0], [1, 1])}

    def test_mismatches_raise(self):
        a = self._records(self.CELL_A, [("c0", 0, 1), ("c1", 1, 1)])
        with pytest.raises(ValidationError, match="conversations differ"):
            paired_predictions(a, self._records(self.CELL_B, [("c0", 0, 1)]))
        with pytest.raises(ValidationError, match="ground truth differs for 'c1'"):
            paired_predictions(a, self._records(self.CELL_B, [("c0", 0, 1), ("c1", 1, 0)]))
        other = "ae|ae-head|base|multi|3,4|cutoff20"
        with pytest.raises(ValidationError, match="share no evaluation cells"):
            paired_predictions(a, self._records(other, [("c0", 0, 1), ("c1", 1, 1)]))
