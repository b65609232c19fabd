import gc
import re
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpred import autoencoder, classifiers, features
from convpred.autoencoder import AEConfig
from convpred.core import ValidationError
from convpred.data_io import GenConfig, generate_synthetic
from convpred.evaluation import (
    EvalReport,
    EvalSettings,
    PredictionRecord,
    Split,
    accuracy,
    cutoff_sensitivity,
    mcnemar,
    paired_predictions,
    parse_pairs,
    read_predictions,
    read_report,
    run_turn_pair,
    split_conversations,
    write_predictions,
    write_report,
)
from convpred.features import FEATURE_KINDS, build_feature_matrix, turn_features
from convpred.scenario import LabelSet, induce_missing, label_runs
from oracles import split_brute


SMALL_GEN = GenConfig(
    n_conversations=24, dim=4, catalogue_size=300, n_turns=6, top_n=50,
    easy_fraction=0.5, pull_rate_easy=0.6, pull_rate_hard=0.01, noise_sigma=0.1, seed=13,
)
SETTINGS = EvalSettings(top_n=50, ae_epochs=15, n_trees=10)


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

    @pytest.mark.parametrize("seed, shown", [(-1, "-1"), (False, "False"), ("3", "'3'"),
                                             (np.uint8(3) - np.int64(4), "np.int64(-1)")])
    def test_seed_must_be_a_non_negative_integer(self, seed, shown):
        ids, labels = self._ids_labels(10, 5)
        with pytest.raises(ValueError, match=rf"^seed {re.escape(shown)} is not a non-negative integer$"):
            split_conversations(ids, labels, seed=seed)

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

    @given(st.integers(2, 40), st.integers(0, 40), st.integers(0, 100), st.booleans(),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_split_depends_on_the_set_of_ids_not_their_order(self, n, n_found, seed,
                                                             stratified, order):
        ids, labels = self._ids_labels(n, min(n_found, n))
        shuffled = ids[:]
        order.shuffle(shuffled)
        assert (split_conversations(shuffled, labels, seed=seed, stratified=stratified)
                == split_conversations(ids, labels, seed=seed, stratified=stratified))

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_conversations(["c0"], {"c0": 1})

    def test_repeated_id_is_refused(self):
        """A repeated id could land on both sides of the split, which the Split refuses."""
        labels = {"a": 0, "b": 1, "c": 1, "d": 0, "e": 0, "f": 1, "g": 0}
        with pytest.raises(ValidationError, match="^split lists conversation 'a' more than once$"):
            split_conversations(["a", "a", "b", "c", "d", "e", "f", "g"], labels, seed=2)

    @given(st.lists(st.text("abcd", min_size=1, max_size=3), unique=True, max_size=40),
           st.lists(st.sampled_from([0, 1]), min_size=40, max_size=40),
           st.none() | st.integers(0, 39),
           st.sampled_from([0.0, 0.04, 0.3, 0.5, 0.7, 0.96, 1.0]) | st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_path_oracle(self, ids, marks, unlabeled, ratio, seed, stratified):
        """One largest-remainder allocation, a plain split being its one-class case, gives
        the earlier plain and stratified paths' ids, order, flag and warnings, or their error."""
        labels = {cid: mark for k, (cid, mark) in enumerate(zip(ids, marks)) if k != unlabeled}
        try:
            expected = split_brute(ids, labels, ratio=ratio, seed=seed, stratified=stratified)
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                split_conversations(ids, labels, ratio=ratio, seed=seed, stratified=stratified)
            return
        split = split_conversations(ids, labels, ratio=ratio, seed=seed, stratified=stratified)
        assert (split.train_ids, split.test_ids, split.stratified, split.warnings) == expected

    @pytest.mark.parametrize("ratio", [0.0, 1.0, float("nan")])
    def test_ratio_outside_the_open_unit_interval(self, ratio):
        ids, labels = self._ids_labels(10, 5)
        with pytest.raises(ValueError, match=rf"^ratio must be in \(0, 1\), got {ratio}$"):
            split_conversations(ids, labels, ratio=ratio)

    @pytest.mark.parametrize("ratio, side", [(0.96, "test"), (0.04, "train")])
    def test_ratio_leaving_a_side_empty(self, ratio, side):
        ids, labels = self._ids_labels(10, 5)
        with pytest.raises(ValueError, match=f"{ratio} leaves the {side} side empty for 10 conv"):
            split_conversations(ids, labels, ratio=ratio)


class TestParsePairs:
    @pytest.mark.parametrize("text, pairs", [("3", ((3, 4),)), ("2-4", ((2, 3), (3, 4), (4, 5)))])
    def test_ranges(self, text, pairs):
        assert parse_pairs(text) == pairs

    @pytest.mark.parametrize("text", ["x", "", "0-3", "4-2", "-3", "2-x", "2-"])
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

    @pytest.mark.parametrize("kind", ["pooled", "top1"])
    def test_feature_kind_that_is_no_predictor_is_refused(self, small_world, kind):
        runs, labels, split = small_world
        with pytest.raises(ValueError, match=f"^unknown predictor '{kind}'; valid: "):
            run_turn_pair(runs, labels, kind, "forest", split, pairs=[(2, 3)], settings=SETTINGS)

    def test_misaligned_labels(self, small_world):
        runs, labels, split = small_world
        partial = {cid: vec for cid, vec in labels.labels.items() if cid != split.test_ids[0]}
        broken = type(labels)(labels=partial, scenario="base", cutoff=labels.cutoff)
        with pytest.raises(ValidationError, match="labels missing"):
            run_turn_pair(runs, broken, "wand", "logreg", split, pairs=[(2, 3)], settings=SETTINGS)

    @pytest.mark.parametrize("case", ["both sides", "train twice", "test twice"])
    def test_split_listing_a_conversation_twice_is_refused(self, small_world, case):
        """Train and test never overlap, even in a split built by hand: it is refused when built."""
        _, _, split = small_world
        ids = split.train_ids + split.test_ids
        train, test, repeated = {
            "both sides": (ids[:6], ids[4:], ids[4]),
            "train twice": (ids[:6] + ids[:1], ids[6:], ids[0]),
            "test twice": (ids[:6], ids[6:] + ids[-1:], ids[-1]),
        }[case]
        with pytest.raises(ValidationError,
                           match=f"^split lists conversation '{repeated}' more than once$"):
            Split(train, test, True)

    def test_split_and_labels_must_cover_the_runs(self, small_world):
        runs, labels, split = small_world
        unknown = Split(split.train_ids + ("nope",), split.test_ids, True)
        with pytest.raises(ValidationError, match="^split references unknown conversation 'nope'$"):
            run_turn_pair(runs, labels, "wand", "logreg", unknown, pairs=[(2, 3)], settings=SETTINGS)
        short = LabelSet({cid: vec[:2] for cid, vec in labels.labels.items()}, cutoff=labels.cutoff)
        first = runs[0].conversation_id
        with pytest.raises(ValidationError,
                           match=f"^labels for '{first}' stop before the last evaluation turn$"):
            run_turn_pair(runs, short, "wand", "logreg", split, pairs=[(2, 3)], settings=SETTINGS)

    def test_unknown_mode(self, small_world):
        runs, labels, split = small_world
        with pytest.raises(ValueError, match="^mode must be 'multi' or 'single', got 'both'$"):
            run_turn_pair(runs, labels, "wand", "logreg", split, pairs=[(2, 3)], mode="both")

    def test_no_runs(self):
        with pytest.raises(ValueError, match="^no runs to evaluate$"):
            run_turn_pair([], LabelSet({}), "wand", "logreg", Split((), (), True), pairs=[(2, 3)])

    def test_no_problems(self):
        with pytest.raises(ValueError, match="^no problems to evaluate: runs, labels, predictor"):
            run_turn_pair([], [], [], [], [])

    @pytest.mark.parametrize("name", ["ae_hidden_dim", "ae_bottleneck_dim"])
    def test_ae_width_below_one_is_refused_in_the_settings(self, name):
        with pytest.raises(ValueError, match=f"^{name[3:]} must be >= 1, got 0$"):
            EvalSettings(**{name: 0})

    def test_settings_hold_the_one_ae_config(self):
        assert EvalSettings().ae == AEConfig()
        wide = EvalSettings(ae_hidden_dim=128, ae_bottleneck_dim=32, ae_learning_rate=0.05)
        assert wide.ae == AEConfig(hidden_dim=128, bottleneck_dim=32, learning_rate=0.05)
        assert replace(SETTINGS, ae_epochs=3).ae.epochs == 3

    def test_ae_config_is_derived_not_set(self):
        with pytest.raises(TypeError, match="'ae'"):
            EvalSettings(ae=AEConfig())
        with pytest.raises(ValueError, match="init=False"):
            replace(SETTINGS, ae=AEConfig())
        with pytest.raises(FrozenInstanceError):
            SETTINGS.ae = AEConfig()
        assert "ae=" not in repr(SETTINGS)

    @pytest.mark.parametrize("predictor", ["ae", "apr"])
    def test_ae_cells_train_with_the_settings_config(self, small_world, monkeypatch, predictor):
        runs, labels, split = small_world
        configs = []

        def spy(X, y, config, seeds):
            configs.append(config)
            return train(X, y, config, seeds)

        train = autoencoder.train
        monkeypatch.setattr(autoencoder, "train", spy)
        run_turn_pair(runs, labels, predictor, "ae-head", split, pairs=[(2, 3), (3, 4)],
                      settings=SETTINGS, seed=2)
        assert len(configs) == 2 and all(config is SETTINGS.ae for config in configs)

    def test_top_n_below_one_is_refused_in_the_settings(self):
        with pytest.raises(ValueError, match="^top_n must be >= 1, got 0$"):
            EvalSettings(top_n=0)

    def test_deterministic_reports(self, small_world):
        runs, labels, split = small_world
        kwargs = dict(pairs=[(2, 3), (4, 5)], settings=SETTINGS, seed=9)
        a = run_turn_pair(runs, labels, "ae", "ae-head", split, **kwargs)
        b = run_turn_pair(runs, labels, "ae", "ae-head", split, **kwargs)
        assert a.rows == b.rows
        assert a.predictions == b.predictions


def _fresh_scenarios():
    """Both scenarios of SMALL_GEN, on rankings this call builds."""
    runs = generate_synthetic(SMALL_GEN)
    labels = label_runs(runs, cutoff=20)
    split = split_conversations([r.conversation_id for r in runs], labels.final_labels(), seed=13)
    modified, missing = induce_missing(runs, labels, fraction=0.5, seed=3)
    assert 0 < len(missing.forced) < len(runs)
    missing_split = split_conversations(
        [r.conversation_id for r in modified], missing.final_labels(), seed=13
    )
    return (runs, labels, split), (modified, missing, missing_split)


@pytest.fixture(scope="module")
def both_scenarios():
    return _fresh_scenarios()


TABLE_ROWS = [("apr", "logreg"), ("score", "forest"), ("ae", "ae-head")]
TABLE_PAIRS = [(2, 3), (3, 4)]


class TestFeatureTable:
    """The per-run memo of feature rows behind ``build_feature_matrix``."""

    def test_shared_table_matches_fresh_tables(self, both_scenarios):
        fresh_scenarios = _fresh_scenarios()  # the same values on rankings with no rows yet
        for (runs, labels, split), (fresh_runs, _, _) in zip(both_scenarios, fresh_scenarios):
            for predictor, classifier in TABLE_ROWS:
                kwargs = dict(pairs=TABLE_PAIRS, settings=SETTINGS, seed=11)
                first = run_turn_pair(fresh_runs, labels, predictor, classifier, split, **kwargs)
                reused = run_turn_pair(fresh_runs, labels, predictor, classifier, split, **kwargs)
                other = run_turn_pair(runs, labels, predictor, classifier, split, **kwargs)
                assert reused.rows == first.rows == other.rows
                assert reused.predictions == first.predictions == other.predictions
            for kind in ("apr", "score", "pooled"):
                for turn in (1, 2, 3):
                    assert np.array_equal(
                        build_feature_matrix(runs, kind, turn, 50, "single").values,
                        [turn_features(run, kind, turn, 50) for run in runs],
                    )

    def test_each_row_computed_once(self, monkeypatch):
        calls = Counter()

        def counted(run, kind, turn, top_n=100):
            calls[(id(run), kind, turn, top_n)] += 1
            return turn_features(run, kind, turn, top_n)

        monkeypatch.setattr(features, "turn_features", counted)
        scenarios = _fresh_scenarios()
        runs = scenarios[0][0]
        build_feature_matrix(runs, "score", 3, 20, "single")  # fills turn 3 alone
        assert all(features._ROWS[run]["score", 20][1].tolist() == [False, False, True] + [False] * 3
                   for run in runs)
        build_feature_matrix(runs, "score", 3, 20)  # fills turns 1 and 2, not turn 3 again
        for _ in range(2):
            for runs, labels, split in scenarios:
                for predictor, classifier in TABLE_ROWS:
                    run_turn_pair(runs, labels, predictor, classifier, split, pairs=TABLE_PAIRS,
                                  settings=SETTINGS, seed=11)
                build_feature_matrix(runs, "score", 2, 20, "single")
        (runs, _, _), (modified, missing, _) = scenarios
        distinct = {id(run) for run in runs + modified}
        assert len(distinct) == len(runs) + len(missing.forced)
        expected = {(rid, kind, turn, 50) for rid in distinct
                    for kind in ("apr", "score", "pooled") for turn in (1, 2, 3)}
        expected |= {(rid, "score", 2, 20) for rid in distinct}
        expected |= {(id(run), "score", turn, 20) for run in runs for turn in (1, 3)}
        assert set(calls) == expected
        assert set(calls.values()) == {1}

    def test_replaced_run_gets_its_own_rows(self, both_scenarios):
        (runs, _, _), (modified, missing, _) = both_scenarios
        before = build_feature_matrix(runs, "score", 6, 50, "single").values
        after = build_feature_matrix(modified, "score", 6, 50, "single").values
        for i, (run, new) in enumerate(zip(runs, modified)):
            if run.conversation_id in missing.forced:
                assert new is not run
                assert np.array_equal(after[i], turn_features(new, "score", 6, 50))
                assert not np.array_equal(after[i], before[i])
            else:
                assert new is run
                assert np.array_equal(after[i], before[i])

    def test_rows_die_with_their_runs(self):
        gc.collect()
        held = len(features._ROWS)
        runs = generate_synthetic(SMALL_GEN)
        for kind in FEATURE_KINDS:
            build_feature_matrix(runs, kind, 3, 50)
        refs = [weakref.ref(run) for run in runs]
        assert all(features._ROWS[r()].keys() == {(k, 50) for k in FEATURE_KINDS} for r in refs)
        assert len(features._ROWS) == held + len(refs)
        del runs
        gc.collect()
        assert all(r() is None for r in refs)
        assert len(features._ROWS) == held

    def test_a_second_kind_adds_under_100_bytes_per_row(self):
        runs = generate_synthetic(GenConfig(n_conversations=50, dim=4, catalogue_size=200,
                                            n_turns=10, top_n=20, seed=2))
        build_feature_matrix(runs, "wand", 10)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            build_feature_matrix(runs, "ac", 10)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (after - before) / (50 * 10) < 100


# ac and apr have one width, so their forests of a cell seed share one draw key
GRID_ROWS = [("score", "forest"), ("ac", "forest"), ("apr", "forest"), ("apr", "logreg"),
             ("apr", "lasso"), ("ae", "ae-head")]
GRID_PAIRS = [(4, 5), (5, 6)]  # wide enough that a tree's draws pick among its columns
STACK_ROWS = [("apr", "logreg"), ("apr", "lasso"), ("score", "forest"), ("ae", "ae-head")]


class TestStackedScenarios:
    """A grid of (scenario, row) problems in one ``run_turn_pair`` call: each
    row's cells of a pair fit as one stack, and its forests share draws."""

    @pytest.mark.parametrize("predictor,classifier", STACK_ROWS)
    def test_stacked_scenarios_match_one_at_a_time(self, both_scenarios, predictor, classifier):
        base, missing = both_scenarios
        # a third problem with another split size cannot join the stack; it is fitted alone
        runs, labels, _ = base
        other_split = split_conversations(
            [r.conversation_id for r in runs], labels.final_labels(), ratio=0.5, seed=5
        )
        scenarios = [base, missing, (runs, labels, other_split)]
        kwargs = dict(pairs=TABLE_PAIRS + [(9, 10)], settings=SETTINGS, seed=11)
        runs_each, labels_each, splits = zip(*scenarios)
        n = len(scenarios)
        stacked = run_turn_pair(runs_each, labels_each, [predictor] * n, [classifier] * n,
                                splits, **kwargs)
        alone = EvalReport()
        for runs_one, labels_one, split in scenarios:
            alone.extend(run_turn_pair(runs_one, labels_one, predictor, classifier, split,
                                       **kwargs))
        assert stacked.rows == alone.rows
        assert stacked.predictions == alone.predictions
        assert stacked.warnings == alone.warnings == [
            "skipped turn pairs 9,10 (runs have 6 turns)"
        ]
        assert [r.scenario for r in stacked.rows if r.scenario == "missing_target"] == [
            "missing_target"
        ] * len(TABLE_PAIRS)

    def test_grid_matches_one_call_per_problem(self, both_scenarios, monkeypatch):
        base, missing = both_scenarios
        # a problem with another split size cannot join its row's stack; it is fitted alone
        runs, labels, _ = base
        other_split = split_conversations(
            [r.conversation_id for r in runs], labels.final_labels(), ratio=0.5, seed=5
        )
        problems = [(r, lab, p, c, s) for r, lab, s in (base, missing) for p, c in GRID_ROWS]
        problems.append((runs, labels, "apr", "forest", other_split))
        kwargs = dict(pairs=GRID_PAIRS + [(9, 10)], settings=SETTINGS, seed=11)
        keys = []

        class Counted(classifiers._Substreams):
            def __init__(self, *key):
                keys.append(key)
                super().__init__(*key)

        monkeypatch.setattr(classifiers, "_Substreams", Counted)
        alone = [run_turn_pair(*problem, **kwargs) for problem in problems]
        n_rows = len(GRID_ROWS)
        # scenario-major, as the protocol lists its problems, and each row's scenarios side by side
        interleaved = [s * n_rows + k for k in range(n_rows) for s in (0, 1)] + [2 * n_rows]
        for order in (range(len(problems)), interleaved):
            keys.clear()
            grid = run_turn_pair(*zip(*[problems[i] for i in order]), **kwargs)
            # per pair: score's key, ac's and apr's shared key, and the other split's key
            assert len(keys) == len(set(keys)) == 3 * len(GRID_PAIRS)
            expected = EvalReport()
            for i in order:
                expected.extend(alone[i])
            assert grid.rows == expected.rows
            assert grid.predictions == expected.predictions
            assert grid.warnings == expected.warnings == [
                "skipped turn pairs 9,10 (runs have 6 turns)"
            ]
            assert [(r.predictor, r.classifier, r.scenario, r.n_test, r.turn_train)
                    for r in grid.rows] == [
                (p, c, lab.scenario, len(s.test_ids), t)
                for _, lab, p, c, s in (problems[i] for i in order) for t, _ in GRID_PAIRS
            ]

    @pytest.mark.parametrize("case", ["a label set short", "a predictor long", "one row string"])
    def test_sequences_of_unequal_length_raise(self, both_scenarios, case):
        (runs, labels, split), (modified, missing, missing_split) = both_scenarios
        args = {
            "a label set short": ([runs, modified], [labels], ["apr", "apr"], ["logreg", "logreg"],
                                  [split, split]),
            "a predictor long": ([runs], [labels], ["apr", "apr"], ["logreg"], [split]),
            # one predictor and classifier for all problems: each string is a sequence too
            "one row string": ([runs, modified], [labels, missing], "apr", "logreg",
                               [split, missing_split]),
        }[case]
        with pytest.raises(ValueError, match=r"^zip\(\) argument \d is (shorter|longer)"):
            run_turn_pair(*args, pairs=[(2, 3)], settings=SETTINGS)

    def test_error_names_the_cell_of_the_failing_problem(self, both_scenarios):
        """A train conversation's scores are huge from some turn on, so the
        spread of that turn's score mean and max overflows: from turn 1 in the
        grid's blown scenario, from turn 3 in the late one. The late problem
        comes first but fails only at the second pair; the first pair at which
        a problem fails names the cell."""
        (runs, labels, split), _ = both_scenarios
        huge = 2.0**990  # 50 of them sum exactly, so a ranking's own std stays 0
        at = [run.conversation_id for run in runs].index(split.train_ids[0])

        def blown(turn):
            """``turn`` with every score huge, its items in id order, as equal scores tie."""
            order = np.argsort(turn.items, kind="stable")
            return replace(turn, items=tuple(turn.items[i] for i in order),
                           scores=np.full(len(order), huge), rows=turn.rows[order])

        def huge_from(first, scenario):
            blown_runs = list(runs)
            blown_runs[at] = replace(runs[at], turns=tuple(
                blown(turn) if turn.turn >= first else turn for turn in runs[at].turns
            ))
            return blown_runs, replace(labels, scenario=scenario), split

        late_runs, late_labels, _ = huge_from(3, "late")
        scenarios = [(runs, labels, split), huge_from(1, "blown")]
        problems = [(late_runs, late_labels, "score", "lasso", split)]
        problems += [(r, lab, p, c, s) for r, lab, s in scenarios
                     for p, c in [("apr", "logreg"), ("score", "logreg")]]
        pairs = [(2, 3), (3, 4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                r"^score\|lasso\|late\|multi\|3,4\|cutoff20: column 6 has no finite spread "
                r"\(std inf\)$"
            )):
                run_turn_pair(*problems[0], pairs=pairs, settings=SETTINGS)
            with pytest.raises(ValueError, match=(
                r"^score\|logreg\|blown\|multi\|2,3\|cutoff20: column 0 has no finite spread "
                r"\(std inf\)$"
            )):
                run_turn_pair(*zip(*problems), pairs=pairs, settings=SETTINGS)


class TestSingleTurn:
    def test_single_width_is_per_turn(self, small_world):
        runs, labels, split = small_world
        multi = run_turn_pair(runs, labels, "score", "logreg", split, pairs=[(3, 4)],
                              settings=SETTINGS, seed=4)
        single = run_turn_pair(runs, labels, "score", "logreg", split, pairs=[(3, 4)],
                               settings=SETTINGS, seed=4, mode="single")
        assert multi.rows[0].mode == "multi"
        assert single.rows[0].mode == "single"

    def test_turn_one_protocols_coincide(self, small_world):
        runs, labels, split = small_world
        multi = run_turn_pair(runs, labels, "wand", "logreg", split, pairs=[(1, 2)],
                              settings=SETTINGS, seed=5)
        single = run_turn_pair(runs, labels, "wand", "logreg", split, pairs=[(1, 2)],
                               settings=SETTINGS, seed=5, mode="single")
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

    def test_no_runs(self):
        with pytest.raises(ValueError, match="^no runs to evaluate$"):
            cutoff_sensitivity([], Split((), (), True), settings=SETTINGS)

    def test_no_cutoffs(self, small_world):
        runs, _, split = small_world
        with pytest.raises(ValueError, match="^no cutoffs to evaluate$"):
            cutoff_sensitivity(runs, split, cutoffs=(), settings=SETTINGS)

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

    def test_repeated_records_raise(self):
        """A repeat within a side raises, also across grid rows that share a cell."""
        a = self._records(self.CELL_A, [("c0", 0, 1), ("c1", 1, 1)])
        b = self._records(self.CELL_B, [("c0", 0, 1), ("c1", 1, 1), ("c0", 1, 1)])
        with pytest.raises(ValidationError, match=r"\|cutoff20: side b has two records for 'c0'"):
            paired_predictions(a, b)
        rows = a + self._records("score|forest|base|multi|2,3|cutoff20", [("c1", 0, 1)])
        with pytest.raises(ValidationError, match="side a has two records for 'c1'"):
            paired_predictions(rows, b[:2])
