import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpred.classifiers import (
    Forest,
    LinearModel,
    predict_cls,
    train_forest,
    train_lasso,
    train_logistic,
)
from helpers import assert_same_trees, counted_store, drawn_mask
from oracles import forest_brute, forest_predict_brute, logistic_brute


def separable_1d(n=40, margin=1.0, seed=0):
    rng = np.random.default_rng(seed)
    x_neg = -margin - rng.random(n // 2) * 2
    x_pos = margin + rng.random(n // 2) * 2
    X = np.concatenate([x_neg, x_pos])[:, None]
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestLogistic:
    def test_symmetric_data_zero_intercept(self):
        X = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        y = np.array([1, 0, 1, 0])
        [model] = train_logistic(X[None], y[None])
        assert model.intercept == pytest.approx(0.0, abs=1e-12)

    def test_separable_toy_perfect_train_accuracy(self):
        X, y = separable_1d()
        [model] = train_logistic(X[None], y[None])
        assert np.mean(predict_cls(model, X) == y) == 1.0

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class(self, label):
        X = np.array([[0.5], [1.5], [-1.0]])
        y = np.array([label] * 3)
        [model] = train_logistic(X[None], y[None])
        assert predict_cls(model, np.array([[0.0], [5.0], [-5.0]])).tolist() == [label] * 3

    def test_loss_decreases(self):
        X, y = separable_1d(seed=3)
        [model] = train_logistic(X[None], y[None])
        history = np.array(model.history)
        assert history[-1] < history[0]
        assert np.all(np.diff(history) <= 1e-12)

    def test_boundary_goes_to_one(self):
        model = LinearModel("logistic", np.zeros(2), 0.0, np.zeros(2), np.ones(2))
        assert predict_cls(model, np.zeros((1, 2))).tolist() == [1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_logistic(np.zeros((1, 0, 2)), [[]])


def wide_separable(width):
    """Two opposite rows copied into ``width`` columns plus a constant one: the first
    step moves every weight alike, so the linear score reaches about 0.05 * width."""
    X = np.hstack([np.array([[1.0], [-1.0]]).repeat(width, axis=1), np.full((2, 1), 3.0)])
    return X, np.array([1, 0])


def random_with_constant_columns(seed, max_rows=40):
    rng = np.random.default_rng(seed)
    n, p = rng.integers(2, max_rows), rng.integers(1, 8)
    X = rng.standard_normal((n, p)) * rng.choice([1e-3, 1.0, 1e3], size=p)
    X[:, rng.random(p) < 0.3] = rng.standard_normal()
    return X, rng.integers(0, 2, size=n)


LOGISTIC_CASES = {
    **{f"random-{seed}": random_with_constant_columns(seed) for seed in range(8)},
    "many-rows": random_with_constant_columns(8, max_rows=400),  # sums past one pairwise block
    "constant-only": (np.full((5, 2), 4.0), np.array([0, 1, 1, 0, 1])),
    "single-class": (np.array([[0.5], [1.5], [-1.0]]), np.array([1, 1, 1])),
    "exp-overflow": wide_separable(15000),
}


@pytest.mark.parametrize("case", list(LOGISTIC_CASES))
def test_logistic_matches_masked_loop(case):
    X, y = LOGISTIC_CASES[case]
    [model] = train_logistic(X[None], y[None])
    weights, intercept, history = logistic_brute(X, y)
    assert np.array_equal(model.weights, weights)
    assert model.intercept == intercept
    assert model.history == history
    if case == "exp-overflow":  # past this, exp(|z|) overflows
        assert abs(model.intercept + model.weights @ ((X[0] - X.mean(0)) / model.input_scale)) > 710


class TestLasso:
    def test_full_shrinkage_limit(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 5))
        y = rng.integers(0, 2, size=30)
        [model] = train_lasso(X[None], y[None], lam=1e6)
        assert np.all(model.weights == 0.0)
        assert model.intercept == y.mean()
        assert model.nonzero == ()

    def test_lambda_zero_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        y = (X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.standard_normal(50) > 0).astype(int)
        [model] = train_lasso(X[None], y[None], lam=0.0, iters=5000)
        Xs = (X - model.input_mean) / model.input_scale
        design = np.hstack([np.ones((len(X), 1)), Xs])
        theta = np.linalg.solve(design.T @ design, design.T @ y)
        assert model.intercept == pytest.approx(theta[0], abs=1e-6)
        np.testing.assert_allclose(model.weights, theta[1:], atol=1e-6)

    def test_soft_threshold_single_column(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        y = (0.4 * (x - x.mean()) / x.std() + 0.5 + 0.05 * rng.standard_normal(100))
        y = np.clip(np.round(y), 0, 1).astype(int)
        lam = 0.1
        [model] = train_lasso(x[None, :, None], y[None], lam=lam, iters=1)
        xs = (x - x.mean()) / x.std()
        rho = float(xs @ (y - y.mean())) / len(y)
        expected = np.sign(rho) * max(abs(rho) - lam, 0.0)
        col_sq = float(xs @ xs) / len(y)
        assert model.weights[0] == pytest.approx(expected / col_sq, abs=1e-12)

    def test_sparsity_monotone_in_lambda(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 8))
        beta = np.array([2.0, -1.0, 0.5, 0.0, 0.0, 0.0, 0.3, 0.0])
        y = (X @ beta + 0.2 * rng.standard_normal(60) > 0).astype(int)
        counts = []
        for lam in (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0):
            [model] = train_lasso(X[None], y[None], lam=lam)
            counts.append(len(model.nonzero))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_objective_non_increasing_per_sweep(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 6))
        y = rng.integers(0, 2, size=40)
        [model] = train_lasso(X[None], y[None], lam=0.05)
        history = np.array(model.history)
        assert np.all(np.diff(history) <= 1e-12)

    def test_all_zero_weights_high_intercept(self):
        model = LinearModel("lasso", np.zeros(3), 0.7, np.zeros(3), np.ones(3))
        assert predict_cls(model, np.zeros((4, 3))).tolist() == [1, 1, 1, 1]

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            train_lasso(np.zeros((1, 3, 2)), [[0, 1, 0]], lam=-1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            train_lasso(np.zeros((1, 3, 2)), [[0, 1, 0]], lam=lam)


def leaf_forest(counts, n_features):
    """A one-problem forest of one-leaf trees, one per (label 0, label 1) count pair."""
    n = len(counts)
    return Forest(roots=np.arange(n)[None], feature=np.full(n, -1), threshold=np.zeros(n),
                  left=np.full(n, -1), right=np.full(n, -1),
                  counts=np.array(counts, dtype=np.float64), n_features=n_features)


class TestForest:
    def test_single_sample_predicts_its_label(self):
        model = train_forest(np.array([[[1.0, 2.0]]]), [[1]], [0], n_trees=10)
        assert (model.feature[model.roots] < 0).all()
        assert predict_cls(model, np.array([[[0.0, 0.0], [9.0, 9.0]]])).tolist() == [[1, 1]]

    def test_separable_toy_perfect_train_accuracy(self):
        X, y = separable_1d(seed=6)
        model = train_forest(X[None], y[None], [1], n_trees=25)
        assert np.mean(predict_cls(model, X[None]) == y) == 1.0

    def test_determinism(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 2, size=30)
        grid = rng.standard_normal((20, 4))
        a = train_forest(X[None], y[None], [9], n_trees=15)
        b = train_forest(X[None], y[None], [9], n_trees=15)
        np.testing.assert_array_equal(predict_cls(a, grid[None]), predict_cls(b, grid[None]))

    def test_prediction_invariant_to_tree_order(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 2, size=30)
        grid = rng.standard_normal((20, 4))
        model = train_forest(X[None], y[None], [2], n_trees=11)
        before = predict_cls(model, grid[None])
        model.roots = model.roots[:, ::-1].copy()
        np.testing.assert_array_equal(predict_cls(model, grid[None]), before)

    def test_vote_tie_goes_to_zero(self):
        model = leaf_forest([[1.0, 0.0], [0.0, 1.0]], n_features=2)
        assert predict_cls(model, np.zeros((1, 3, 2))).tolist() == [[0, 0, 0]]

    def test_leaf_count_tie_goes_to_zero(self):
        model = leaf_forest([[2.0, 2.0]], n_features=1)
        assert predict_cls(model, np.zeros((1, 1, 1))).tolist() == [[0]]

    def test_built_leaf_count_tie_goes_to_zero(self):
        # equal rows with both labels cannot be split: the bootstrap of seed 1 holds
        # each row once, so the single leaf has one sample of each label
        model = train_forest(np.array([[[0.0], [0.0]]]), [[0, 1]], [1], n_trees=1)
        assert model.counts[model.roots[0, 0]].tolist() == [1.0, 1.0]
        assert predict_cls(model, np.array([[[0.0], [5.0]]])).tolist() == [[0, 0]]

    @pytest.mark.parametrize("values", [
        [-np.inf, 0.0],  # the midpoint is -inf
        [1.0, np.nextafter(1.0, 2.0)],  # the midpoint rounds onto 1.0
        [1e308, 1.5e308],  # the sum overflows to inf
    ], ids=["minus-inf", "rounded", "overflow"])
    def test_split_without_a_midpoint_between_values_separates(self, values):
        X = np.array(values)[None, :, None]
        model = train_forest(X, [[0, 1]], [0], n_trees=25)
        split = model.feature >= 0
        assert split.any()
        assert np.all((values[0] < model.threshold[split]) & (model.threshold[split] <= values[1]))
        assert predict_cls(model, X).tolist() == [[0, 1]]


@st.composite
def forest_inputs(draw):
    """Small training sets with tied values, duplicate rows and a few non-finite cells."""
    n = draw(st.integers(1, 24))
    n_features = draw(st.integers(1, 12))
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))
    n_distinct = draw(st.integers(1, n))
    distinct = np.array(draw(st.lists(st.lists(value, min_size=n_features, max_size=n_features),
                                      min_size=n_distinct, max_size=n_distinct)))
    cells = st.tuples(st.integers(0, n_distinct - 1), st.integers(0, n_features - 1),
                      st.sampled_from([np.inf, -np.inf, np.nan]))
    for row, column, special in draw(st.lists(cells, max_size=3)):
        distinct[row, column] = special
    X = distinct[draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n))]
    single = draw(st.integers(0, 3)) == 0
    label = st.just(draw(st.integers(0, 1))) if single else st.integers(0, 1)
    y = np.array(draw(st.lists(label, min_size=n, max_size=n)))
    return X, y, draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


def serve_other_forest(streams, X, n_trees, seed):
    """Train a forest of X's key on other values and labels through ``streams``."""
    rng = np.random.default_rng(seed)
    other_X = rng.standard_normal(X.shape)
    other_y = rng.integers(0, 2, size=len(X))
    train_forest(other_X[None], other_y[None], [seed], n_trees=n_trees, streams=streams)


@settings(max_examples=300, deadline=None)
@given(forest_inputs())
def test_forest_matches_recursive_builder(inputs):
    X, y, n_trees, seed = inputs
    served = {}
    serve_other_forest(served, X, n_trees, seed)
    expected = forest_brute(X, y, n_trees, seed)
    for streams in (None, served):
        model = train_forest(X[None], y[None], [seed], n_trees=n_trees, streams=streams)
        assert_same_trees(model, model.roots[0], expected)


def test_store_adds_waves_and_serves_shorter_forests():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((30, 9))
    short_y = np.r_[1, np.zeros(29, dtype=int)]  # a tree splits off row 0, if it holds it
    long_y = rng.integers(0, 2, size=30)
    streams = {}
    store = counted_store(streams, (4, 6, 30, 9))
    grown = []
    for y in (short_y, long_y, short_y):
        model = train_forest(X[None], y[None], [4], n_trees=6, streams=streams)
        assert_same_trees(model, model.roots[0], forest_brute(X, y, 6, 4))
        calls = [tree_rng.calls for tree_rng in store.rngs]
        assert calls == drawn_mask(store).sum(axis=0).tolist()  # each (tree, wave) drawn once
        grown.append((len(store.waves), sum(calls)))
    # the long forest added waves, and the short forest after it drew nothing
    assert grown[0] < grown[1] == grown[2]


def oracle_thresholds(tree):
    if len(tree) == 2:
        return []
    return [tree[1]] + oracle_thresholds(tree[2]) + oracle_thresholds(tree[3])


@settings(max_examples=100, deadline=None)
@given(forest_inputs(), st.data())
def test_forest_predict_matches_row_walk(inputs, data):
    X, y, n_trees, seed = inputs
    expected = forest_brute(X, y, n_trees, seed)
    thresholds = sorted({t for tree in expected for t in oracle_thresholds(tree)}, key=repr)
    cell = st.one_of(
        st.floats(-1e3, 1e3),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        *([st.sampled_from(thresholds)] if thresholds else []),
    )
    n_query = data.draw(st.integers(1, 8))
    query = np.array(data.draw(st.lists(st.lists(cell, min_size=X.shape[1], max_size=X.shape[1]),
                                        min_size=n_query, max_size=n_query)))
    query = np.vstack([query, X])
    model = train_forest(X[None], y[None], [seed], n_trees=n_trees)
    assert predict_cls(model, query[None])[0].tolist() == forest_predict_brute(expected, query)


def test_trees_link_every_node_of_a_stacked_forest():
    """``Forest.trees`` reaches each node of the node arrays once, a leaf
    exactly where ``feature < 0``, with None for its children."""
    rng = np.random.default_rng(5)
    forest = train_forest(rng.standard_normal((2, 20, 4)), rng.integers(0, 2, size=(2, 20)),
                          [1, 2], n_trees=3)
    walk, seen = list(zip(forest.trees, forest.roots.ravel().tolist())), []
    while walk:
        node, index = walk.pop()
        seen.append(index)
        assert node.is_leaf == (forest.feature[index] < 0)
        if node.is_leaf:
            assert node.left is None and node.right is None
        else:
            walk += [(node.left, forest.left[index]), (node.right, forest.right[index])]
    assert sorted(seen) == list(range(len(forest.feature)))


class TestPredictDispatch:
    def test_width_mismatch_linear(self):
        model = LinearModel("logistic", np.zeros(3), 0.0, np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="width"):
            predict_cls(model, np.zeros((2, 4)))

    def test_width_mismatch_forest(self):
        model = train_forest(np.zeros((1, 2, 3)), [[0, 1]], [0], n_trees=2)
        with pytest.raises(ValueError, match="width"):
            predict_cls(model, np.zeros((1, 2, 5)))

    def test_one_dimensional_rows_are_refused(self):
        """A 1-D X is not read as one column, even by a model one column wide."""
        linear = LinearModel("logistic", np.zeros(1), 0.0, np.zeros(1), np.ones(1))
        with pytest.raises(ValueError, match=r"^feature shape \(3,\) does not match training width 1$"):
            predict_cls(linear, np.zeros(3))

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (1, 1, 3, 1)])
    def test_forest_refuses_rows_that_are_not_a_stack(self, shape):
        forest = train_forest(np.zeros((1, 2, 1)), [[0, 1]], [0], n_trees=2)
        message = f"feature shape {shape} does not match a stack of 1 forests of training width 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            predict_cls(forest, np.zeros(shape))

    def test_stack_mismatch_forest(self):
        model = train_forest(np.zeros((2, 2, 3)), [[0, 1], [1, 0]], [0, 0], n_trees=2)
        with pytest.raises(ValueError, match=r"^feature shape \(3, 2, 3\) does not match a stack of 2 "):
            predict_cls(model, np.zeros((3, 2, 3)))

    def test_forest_needs_a_tree(self):
        with pytest.raises(ValueError, match="^n_trees must be >= 1, got 0$"):
            train_forest(np.zeros((1, 2, 3)), [[0, 1]], [0], n_trees=0)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            predict_cls(object(), np.zeros((1, 1)))
