from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpred import features
from convpred.core import read_csv
from convpred.data_io import GenConfig, generate_synthetic
from convpred.features import (
    FEATURE_KINDS,
    anchored_pair_ratio,
    autocorrelation,
    build_feature_matrix,
    mean_pairwise_similarity,
    pooled_embedding,
    query_surrogate,
    reciprocal_volume,
    score_stats,
    top_item_embedding,
    turn_features,
    write_features,
)
from helpers import make_ranking, make_run, random_ranking, random_run
from oracles import ac_brute, apr_brute, rv_brute, wand_brute


class TestScoreStats:
    def test_singleton(self):
        ranking = make_ranking([5.0], [[1.0, 0.0]])
        assert score_stats(ranking) == (5.0, 5.0, 0.0)

    def test_three_scores(self):
        ranking = make_ranking([3.0, 2.0, 1.0], np.eye(3))
        mean, peak, std = score_stats(ranking)
        assert (mean, peak) == (2.0, 3.0)
        assert std == pytest.approx(0.81649658, abs=1e-8)

    def test_constant(self):
        ranking = make_ranking([2.5, 2.5, 2.5], np.eye(3))
        assert score_stats(ranking) == (2.5, 2.5, 0.0)

    def test_top_n_slice(self):
        ranking = make_ranking([4.0, 3.0, 2.0, 1.0], np.eye(4))
        assert score_stats(ranking, top_n=2) == (3.5, 4.0, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_stats(make_ranking([], []))

    def test_top_n_below_one_rejected(self):
        with pytest.raises(ValueError, match="^top_n must be >= 1, got 0$"):
            score_stats(make_ranking([1.0], [[1.0]]), top_n=0)


class TestAutocorrelation:
    def test_constant_scores(self):
        rng = np.random.default_rng(0)
        ranking = make_ranking([1.0, 1.0, 1.0], rng.standard_normal((3, 4)),
                               ids=["a", "b", "c"])
        assert autocorrelation(ranking) == 0.0

    def test_two_item_anticorrelation(self):
        ranking = make_ranking([2.0, 1.0], [[1.0, 0.1], [1.0, -0.1]])
        assert autocorrelation(ranking) == pytest.approx(-1.0, abs=1e-12)

    def test_needs_two_items(self):
        with pytest.raises(ValueError):
            autocorrelation(make_ranking([1.0], [[1.0, 0.0]]))
        # c0 fails at turn 2 and c1 at turn 1: turn by turn, c1's fault comes first
        one_item = make_ranking([1.0], [[1.0, 0.0]])
        two_items = make_ranking([2.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        runs = [make_run([two_items, replace(one_item, turn=2)], cid="c0"),
                make_run([one_item, replace(two_items, turn=2)], cid="c1")]
        with pytest.raises(ValueError, match="^c1 turn 1: ac needs at least 2 items, top_n 100 keeps 1$"):
            build_feature_matrix(runs, "ac", 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        ranking = random_ranking(rng, n, 4)
        scores = ranking.scores.tolist()
        embs = ranking.embeddings.tolist()
        assert autocorrelation(ranking) == pytest.approx(ac_brute(scores, embs), abs=1e-9)


class TestWand:
    def test_identical_unit_vectors(self):
        ranking = make_ranking([2.0, 1.0], [[0.0, 1.0], [0.0, 1.0]])
        assert mean_pairwise_similarity(ranking) == pytest.approx(1.0)

    def test_orthogonal(self):
        ranking = make_ranking([2.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        assert mean_pairwise_similarity(ranking) == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        ranking = random_ranking(rng, 5, 3)
        embs = ranking.embeddings.tolist()
        assert mean_pairwise_similarity(ranking) == pytest.approx(wand_brute(embs), abs=1e-9)


class TestReciprocalVolume:
    def test_unit_distance_item(self):
        ranking = make_ranking([1.0], [[1.0, 1.0]], query=[1.0, 0.0])
        value = reciprocal_volume(ranking)
        assert value == pytest.approx((1.0 + 1e-8) ** -0.5, rel=1e-9)

    def test_item_equal_to_query(self):
        ranking = make_ranking([1.0], [[1.0, 0.0]], query=[1.0, 0.0])
        assert reciprocal_volume(ranking) == pytest.approx(1e4, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 4))
        ranking = random_ranking(rng, n, 3, with_query=True)
        embs = ranking.embeddings.tolist()
        q = ranking.query_embedding.tolist()
        assert reciprocal_volume(ranking) == pytest.approx(rv_brute(embs, q), rel=1e-6)


class TestAnchoredPairRatio:
    def test_items_identical_to_query(self):
        ranking = make_ranking([2.0, 1.0], [[1.0, 0.0], [1.0, 0.0]], query=[1.0, 0.0])
        assert anchored_pair_ratio(ranking) == 0.0

    def test_items_identical_distinct_from_query(self):
        ranking = make_ranking([2.0, 1.0], [[1.0, 0.0], [1.0, 0.0]], query=[0.0, 1.0])
        assert anchored_pair_ratio(ranking) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(300 + seed)
        ranking = random_ranking(rng, 3, 4, with_query=True)
        embs = ranking.embeddings.tolist()
        q = ranking.query_embedding.tolist()
        assert anchored_pair_ratio(ranking) == pytest.approx(apr_brute(embs, q), abs=1e-9)


class TestQuerySurrogate:
    def test_query_field_verbatim(self):
        q = np.array([3.0, 4.0])
        ranking = make_ranking([1.0], [[1.0, 0.0]], query=q)
        assert np.array_equal(query_surrogate(ranking), q)

    def test_normalized_centroid(self):
        ranking = make_ranking([2.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            query_surrogate(ranking), [0.70710678, 0.70710678], atol=1e-8
        )

    def test_single_item_normalized(self):
        ranking = make_ranking([1.0], [[0.0, 2.0]])
        np.testing.assert_allclose(query_surrogate(ranking), [0.0, 1.0])

    def test_zero_centroid_rejected(self):
        ranking = make_ranking([2.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="zero-norm centroid"):
            query_surrogate(ranking)


class TestPooled:
    def test_single_item(self):
        ranking = make_ranking([1.0], [[2.0, 3.0]])
        np.testing.assert_array_equal(pooled_embedding(ranking), [2.0, 3.0])

    def test_mean(self):
        ranking = make_ranking([2.0, 1.0], [[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(pooled_embedding(ranking), [1.0, 1.0])

    def test_membership_permutation_invariant(self):
        a = make_ranking([2.0, 1.0], [[2.0, 0.0], [0.0, 2.0]], ids=["a", "b"])
        b = make_ranking([2.0, 1.0], [[0.0, 2.0], [2.0, 0.0]], ids=["a", "b"])
        np.testing.assert_allclose(pooled_embedding(a), pooled_embedding(b))

    def test_top1(self):
        ranking = make_ranking([2.0, 1.0], [[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(top_item_embedding(ranking), [2.0, 0.0])

    def test_memo_entry_is_one_owned_array_per_run_and_kind(self):
        """Rows read from rankings over a shared table are copied into the run's own array."""
        runs = generate_synthetic(GenConfig(n_conversations=2, dim=4, catalogue_size=30,
                                            n_turns=3, top_n=10, seed=1))
        build_feature_matrix(runs, "top1", 2)
        for run in runs:
            rows, filled = features._ROWS[run]["top1", 100]
            assert rows.base is None and rows.shape == (3, 4) and rows.dtype == np.float64
            assert filled.tolist() == [True, True, False]
            for turn in (1, 2):
                np.testing.assert_array_equal(rows[turn - 1], turn_features(run, "top1", turn))


class TestAssembly:
    def test_wand_multiturn_equals_per_turn(self):
        run = random_run(7, n_turns=3, n_items=4, dim=3)
        vec = build_feature_matrix([run], "wand", 2).values[0]
        assert vec.shape == (2,)
        for t in (1, 2):
            assert vec[t - 1] == mean_pairwise_similarity(run.turns[t - 1])

    def test_score_shape(self):
        run = random_run(8, n_turns=4, n_items=3, dim=2)
        assert build_feature_matrix([run], "score", 3).values[0].shape == (9,)

    def test_pooled_shape(self):
        run = random_run(9, n_turns=4, n_items=3, dim=32)
        assert build_feature_matrix([run], "pooled", 4).values[0].shape == (128,)

    def test_prefix_property(self):
        run = random_run(10, n_turns=4, n_items=4, dim=3)
        for kind in FEATURE_KINDS:
            short = build_feature_matrix([run], kind, 2).values[0]
            longer = build_feature_matrix([run], kind, 3).values[0]
            np.testing.assert_array_equal(longer[: len(short)], short)

    def test_exceeding_run_length(self):
        run = random_run(11, n_turns=2)
        with pytest.raises(ValueError, match="exceeds run length"):
            build_feature_matrix([run], "wand", 3)

    @pytest.mark.parametrize("upto_turn,message", [(0, "upto_turn must be >= 1, got 0"),
                                                   (3, "c1: upto_turn 3 exceeds run length 2")])
    def test_single_mode_range_error_matches_multi(self, upto_turn, message):
        runs = [random_run(11, n_turns=2, cid="c1")]
        for mode in ("multi", "single"):
            with pytest.raises(ValueError) as err:
                build_feature_matrix(runs, "wand", upto_turn, mode=mode)
            assert str(err.value) == message

    def test_no_runs(self):
        with pytest.raises(ValueError, match="no runs"):
            build_feature_matrix([], "wand", 2)

    @given(st.integers(0, 10_000), st.sampled_from(sorted(FEATURE_KINDS)),
           st.sampled_from(["multi", "single"]), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matrix_matches_per_turn_features(self, seed, kind, mode, upto_turn, n_runs):
        runs = [random_run(seed + i, n_turns=4, n_items=5, dim=3, cid=f"c{i}")
                for i in range(n_runs)]
        turns = range(1, upto_turn + 1) if mode == "multi" else [upto_turn]
        expected = [np.concatenate([turn_features(run, kind, t, 4) for t in turns]) for run in runs]
        for _ in range(2):  # the second pass reads every row from the runs' memo
            np.testing.assert_array_equal(
                build_feature_matrix(runs, kind, upto_turn, 4, mode).values, expected
            )

    def test_unknown_kind(self):
        run = random_run(12)
        with pytest.raises(ValueError, match="unknown feature kind"):
            turn_features(run, "nope", 1)

    @pytest.mark.parametrize("turn", [0, 3])
    def test_turn_outside_the_run(self, turn):
        run = random_run(12, n_turns=2, cid="c1")
        with pytest.raises(ValueError, match=f"^c1: turn {turn} outside run with 2 turns$"):
            turn_features(run, "wand", turn)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="^mode must be 'multi' or 'single', got 'both'$"):
            build_feature_matrix([random_run(12)], "wand", 2, mode="both")

    @given(st.integers(0, 10_000), st.floats(0.1, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_cosine_kinds_scale_invariant(self, seed, scale):
        run = random_run(seed, n_turns=2, n_items=4, dim=3)
        scaled_turns = [
            make_ranking(
                ranking.scores,
                ranking.embeddings * scale,
                turn=ranking.turn,
            )
            for ranking in run.turns
        ]
        scaled = make_run(scaled_turns)
        for kind in ("ac", "wand"):
            np.testing.assert_allclose(
                build_feature_matrix([run], kind, 2).values[0],
                build_feature_matrix([scaled], kind, 2).values[0],
                atol=1e-12,
            )

    @pytest.mark.parametrize("kind", ["ac", "wand", "rv", "apr"])
    def test_multiturn_matches_brute_force_per_turn(self, kind):
        rng = np.random.default_rng(77)
        turns = [random_ranking(rng, 4, 6, turn=t, with_query=True) for t in (1, 2, 3)]
        run = make_run(turns)
        vec = build_feature_matrix([run], kind, 3).values[0]
        for t, ranking in enumerate(turns):
            scores = ranking.scores.tolist()
            embs = ranking.embeddings.tolist()
            q = ranking.query_embedding.tolist()
            expected = {
                "ac": lambda: ac_brute(scores, embs),
                "wand": lambda: wand_brute(embs),
                "rv": lambda: rv_brute(embs, q),
                "apr": lambda: apr_brute(embs, q),
            }[kind]()
            tolerance = {"rv": dict(rel=1e-6)}.get(kind, dict(abs=1e-9))
            assert vec[t] == pytest.approx(expected, **tolerance)

    def test_score_stats_mean_le_max(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ranking = random_ranking(rng, 5, 3)
            mean, peak, std = score_stats(ranking)
            assert mean <= peak
            assert std >= 0.0


class TestFeatureFiles:
    def test_roundtrip(self, tmp_path):
        runs = [random_run(s, n_turns=3, n_items=4, dim=3, cid=f"c{s}") for s in range(3)]
        matrix = build_feature_matrix(runs, "score", 2)
        path = tmp_path / "features.csv"
        write_features(matrix, path, header_comment="features test")
        _, records = read_csv(path, "feature")
        assert [r[:3] for r in records] == [[cid, "score", "2"] for cid in matrix.conversation_ids]
        np.testing.assert_array_equal([[float(v) for v in r[3:]] for r in records], matrix.values)

    def test_header_layout(self, tmp_path):
        runs = [random_run(1, cid="c1")]
        matrix = build_feature_matrix(runs, "wand", 2)
        path = tmp_path / "features.csv"
        write_features(matrix, path)
        header = path.read_text().splitlines()[0]
        assert header == "conversation_id,predictor,upto_turn,f_0,f_1"


ROTATION_KINDS = ["ac", "wand", "apr", "score",
                  pytest.param("rv", marks=pytest.mark.xfail(
                      strict=True, reason="rv's ridge on a rank-deficient Gram matrix moves it "
                                          "by about 5e-7 relative under a rotation"))]


@pytest.fixture(scope="module")
def rotated_runs():
    """Generated runs (100 items of dimension 32 per turn) and the same runs with
    every embedding and query turned by one random orthogonal matrix."""
    runs = generate_synthetic(GenConfig(n_conversations=6, dim=32, catalogue_size=400, seed=5))
    rotation, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((32, 32)))
    rotated = [
        replace(run, turns=tuple(
            replace(turn, item_rows=turn.embeddings @ rotation, rows=None,
                    query_embedding=turn.query_embedding @ rotation)
            for turn in run.turns
        ))
        for run in runs
    ]
    return runs, rotated


@pytest.mark.parametrize("with_query", [True, False], ids=["query", "no query"])
def test_order_preserving_id_renaming_leaves_every_kind_unchanged(rotated_runs, with_query):
    """A metamorphic relation: features see item ids only through their order,
    where score ties break by id, so renaming ids in order changes no bit."""
    runs, _ = rotated_runs
    if not with_query:
        runs = [replace(run, turns=tuple(replace(turn, query_embedding=None) for turn in run.turns))
                for run in runs]
    ids = sorted({item for run in runs for turn in run.turns for item in turn.items}
                 | {run.target_id for run in runs})
    renamed_id = {item: f"renamed-{i:06d}" for i, item in enumerate(ids)}
    renamed = [
        replace(run, target_id=renamed_id[run.target_id], turns=tuple(
            replace(turn, items=tuple(renamed_id[item] for item in turn.items))
            for turn in run.turns
        ))
        for run in runs
    ]
    assert all(renamed_id[a] < renamed_id[b] for a, b in zip(ids, ids[1:]))
    for kind in FEATURE_KINDS:
        for run, other in zip(runs, renamed):
            assert other.turns[0].items != run.turns[0].items
            for turn in range(1, run.n_turns + 1):
                assert np.array_equal(turn_features(other, kind, turn),
                                      turn_features(run, kind, turn)), (kind, turn)


@pytest.mark.parametrize("kind", ROTATION_KINDS)
def test_rotation_leaves_geometry_features_unchanged(rotated_runs, kind):
    """A metamorphic relation: the kinds depend on embeddings only through
    cosines and distances, which an orthogonal map keeps."""
    runs, rotated = rotated_runs
    for run, turned in zip(runs, rotated):
        for turn in range(1, run.n_turns + 1):
            np.testing.assert_allclose(turn_features(turned, kind, turn),
                                       turn_features(run, kind, turn), rtol=1e-12, atol=0)
