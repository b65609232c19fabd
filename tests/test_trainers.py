"""The trainer layer as a whole: the four trainers share one input check, take
stacks of problems that fit as if alone, and refuse columns without a finite
spread."""

import re
import warnings

import numpy as np
import pytest

from convpred import autoencoder, classifiers
from convpred.autoencoder import AEConfig
from helpers import assert_same_trees, counted_store, drawn_mask
from oracles import ae_train_brute, forest_brute, forest_predict_brute, logistic_brute

TRAINERS = {
    "ae-head": lambda X, y: autoencoder.train(X, y, AEConfig(epochs=2), [0]),
    "logreg": classifiers.train_logistic,
    "lasso": classifiers.train_lasso,
    "forest": lambda X, y: classifiers.train_forest(X, y, [0], n_trees=2),
}

ROWS = np.arange(12.0).reshape(4, 3)
BAD_INPUT = {
    "empty": (np.zeros((1, 0, 3)), [[]], "non-empty"),
    "misaligned": (ROWS[None], [[0, 1, 0]], "align"),
    "label 2": (ROWS[None], [[0, 1, 2, 1]], "0 or 1"),
    "fractional label": (ROWS[None], [[0, 0.5, 1, 1]], "0 or 1"),
    "1-D": (np.arange(4.0)[None], [[0, 1, 0, 1]], r"^training data must be a non-empty \(P, n, F\) "
            r"stack, got shape \(1, 4\)$"),
    "2-D": (ROWS, [0, 1, 0, 1], r"^training data must be a non-empty \(P, n, F\) stack, got shape "
            r"\(4, 3\)$"),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
@pytest.mark.parametrize("trainer", list(TRAINERS))
def test_trainers_reject_the_same_bad_input(trainer, case):
    X, y, message = BAD_INPUT[case]
    with pytest.raises(ValueError, match=message):
        TRAINERS[trainer](X, y)


# ---- stacks: P problems of one shape fitted together, each as if alone ----

SEEDS = (5, 6, 7)


def _problems(P, n=18, width=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((P, n, width)) * rng.uniform(0.5, 50.0, width)
    return X, rng.integers(0, 2, size=(P, n))


def _constant_column():
    X, y = _problems(2, seed=1)
    X[1, :, 2] = 4.0
    return X, y


def _one_class():
    X, y = _problems(2, seed=2)
    y[0] = 0
    return X, y


STACKS = {
    "one": lambda: _problems(1, seed=3),
    "three seeds": lambda: _problems(3, seed=4),
    "constant column": _constant_column,
    "one class": _one_class,
}


@pytest.mark.parametrize("case", list(STACKS))
def test_stacked_autoencoder_matches_oracle(case):
    X, y = STACKS[case]()
    config = AEConfig(epochs=20)
    fits = autoencoder.train(X, y, config, seeds=SEEDS[: len(X)])
    assert len(fits) == len(X)
    for (model, trace), X_p, y_p, seed in zip(fits, X, y, SEEDS):
        params, history = ae_train_brute(X_p, y_p, config, seed)
        assert model.config is config
        for name, value in params.items():
            np.testing.assert_array_equal(getattr(model, name), value)
        np.testing.assert_array_equal(np.stack([trace.rec, trace.cls, trace.total]), history)


def test_stack_wider_than_one_fit_trains_its_problems_one_at_a_time():
    X, y = _problems(2, width=160, seed=5)  # 22762 parameters each, over half of STACK_PARAMS
    config = AEConfig(epochs=5)
    assert 2 * sum(p.size for p in autoencoder.init_model(config, 160, 0).parameters().values()) > (
        autoencoder.STACK_PARAMS
    )
    fits = autoencoder.train(X, y, config, seeds=SEEDS[:2])
    for (model, _), X_p, y_p, seed in zip(fits, X, y, SEEDS):
        params, _ = ae_train_brute(X_p, y_p, config, seed)
        for name, value in params.items():
            np.testing.assert_array_equal(getattr(model, name), value)


@pytest.mark.parametrize("case", list(STACKS))
def test_stacked_logistic_matches_oracle(case):
    X, y = STACKS[case]()
    models = classifiers.train_logistic(X, y)
    assert len(models) == len(X)
    for model, X_p, y_p in zip(models, X, y):
        weights, intercept, history = logistic_brute(X_p, y_p)
        np.testing.assert_array_equal(model.weights, weights)
        assert model.intercept == intercept and model.history == history


@pytest.mark.parametrize("case", list(STACKS))
def test_stacked_lasso_matches_lone_fits(case):
    X, y = STACKS[case]()
    for model, X_p, y_p in zip(classifiers.train_lasso(X, y), X, y):
        [alone] = classifiers.train_lasso(X_p[None], y_p[None])
        np.testing.assert_array_equal(model.weights, alone.weights)
        assert (model.intercept, model.history, model.nonzero) == (
            alone.intercept, alone.history, alone.nonzero
        )


def _assert_stacked_forest(forest, X, y, n_trees, seeds):
    assert forest.roots.shape == (len(X), n_trees)
    query = np.random.default_rng(9).standard_normal((len(X), 5, X.shape[2]))
    predicted = classifiers.predict_cls(forest, query)
    for p, (X_p, y_p, seed) in enumerate(zip(X, y, seeds)):
        expected = forest_brute(X_p, y_p, n_trees, seed)
        assert_same_trees(forest, forest.roots[p], expected)
        assert predicted[p].tolist() == forest_predict_brute(expected, query[p])


@pytest.mark.parametrize("case", list(STACKS))
def test_stacked_forest_matches_oracle(case):
    X, y = STACKS[case]()
    forest = classifiers.train_forest(X, y, SEEDS[: len(X)], n_trees=7)
    _assert_stacked_forest(forest, X, y, 7, SEEDS)


def test_forest_matches_oracle_at_protocol_scale():
    """Two problems of the protocol's train split (140 rows) over 9 columns, three of
    them small tied integers, with about one label 1 in five: trees many waves deep."""
    rng = np.random.default_rng(17)
    X = np.concatenate([rng.integers(0, 6, size=(2, 140, 3)).astype(float),
                        rng.standard_normal((2, 140, 6)) * [0.1, 1.0, 3.0, 10.0, 0.5, 2.0]], axis=2)
    y = (X[..., 3] + rng.standard_normal((2, 140)) > 0.9).astype(int)
    assert 0.1 < y.mean() < 0.4
    streams = {}
    forest = classifiers.train_forest(X, y, SEEDS[:2], n_trees=24, streams=streams)
    assert min(len(store.waves) for store in streams.values()) >= 10
    predicted = classifiers.predict_cls(forest, X)
    for p, seed in enumerate(SEEDS[:2]):
        expected = forest_brute(X[p], y[p], 24, seed)
        assert_same_trees(forest, forest.roots[p], expected)
        assert predicted[p].tolist() == forest_predict_brute(expected, X[p])


def test_stacked_forests_of_one_key_share_draws_and_serve_a_later_forest():
    """Two problems of one seed share one key's substreams. The first grows
    few waves (a tree splits off row 0 if it holds it), the second many.

    A tree pops one node per wave until it is done, so both problems take
    tree t's j-th draw in wave j: the first to take it draws it and the other
    reads it from the store. The store then holds the waves of the deeper of
    the two, with each tree's draws of either, and a later forest of the key
    draws nothing.
    """
    rng = np.random.default_rng(21)
    X = rng.standard_normal((2, 30, 9))
    y = np.stack([np.r_[1, np.zeros(29, dtype=int)], rng.integers(0, 2, size=30)])
    key = (4, 6, 30, 9)
    streams = {}
    store = counted_store(streams, key)
    forest = classifiers.train_forest(X, y, [4, 4], n_trees=6, streams=streams)
    _assert_stacked_forest(forest, X, y, 6, (4, 4))
    alone = []
    for X_p, y_p in zip(X, y):
        own = {}
        classifiers.train_forest(X_p[None], y_p[None], [4], n_trees=6, streams=own)
        alone.append(own[key])
    assert list(streams) == [key]
    assert len(alone[0].waves) < len(alone[1].waves) == len(store.waves)
    expected = np.zeros((len(store.waves), 6), dtype=bool)
    for own in alone:
        expected[: len(own.waves)] |= drawn_mask(own)
        for shared, draws in zip(store.waves, own.waves):
            made = draws[:, 0] >= 0
            np.testing.assert_array_equal(shared[made], draws[made])
    np.testing.assert_array_equal(drawn_mask(store), expected)
    calls = [tree_rng.calls for tree_rng in store.rngs]
    assert calls == expected.sum(axis=0).tolist()  # each (tree, wave) drawn once
    later = classifiers.train_forest(X[1:], y[1:], [4], n_trees=6, streams=streams)
    assert_same_trees(later, later.roots[0], forest_brute(X[1], y[1], 6, 4))
    assert [tree_rng.calls for tree_rng in store.rngs] == calls


SEEDED = {
    "ae-head": lambda X, y, seeds: autoencoder.train(X, y, AEConfig(), seeds),
    "forest": lambda X, y, seeds: classifiers.train_forest(X, y, seeds, n_trees=2),
}


@pytest.mark.parametrize("trainer", list(SEEDED))
def test_stack_needs_a_seed_per_problem(trainer):
    X, y = _problems(2)
    with pytest.raises(ValueError, match="^3 seeds for a stack of 2 problems$"):
        SEEDED[trainer](X, y, SEEDS)


@pytest.mark.parametrize("seeds", [5, [[0, 1]]], ids=["scalar", "nested"])
@pytest.mark.parametrize("trainer", list(SEEDED))
def test_seeded_trainers_refuse_seeds_not_one_per_problem(trainer, seeds):
    with pytest.raises(ValueError, match=rf"^seeds {re.escape(repr(seeds))}, not one per problem, "
                                         r"for a stack of 1 problems$"):
        SEEDED[trainer](np.zeros((1, 2, 3)), [[0, 1]], seeds)


@pytest.mark.parametrize("seeds, seed", [
    ([1.5], "1.5"), (["3"], "'3'"), ([True], "True"), ([np.True_], "np.True_"), ([-1], "-1"),
    ([np.int64(-2)], "np.int64(-2)"), (np.array([0.0]), "np.float64(0.0)"),
], ids=["float", "str", "bool", "numpy-bool", "negative", "numpy-negative", "numpy-float"])
@pytest.mark.parametrize("trainer", list(SEEDED))
def test_seeded_trainers_refuse_a_seed_that_is_not_a_non_negative_integer(trainer, seeds, seed):
    with pytest.raises(ValueError, match=rf"^seed {re.escape(seed)} is not a non-negative integer$"):
        SEEDED[trainer](np.zeros((1, 2, 3)), [[0, 1]], seeds)


@pytest.mark.parametrize("trainer", list(SEEDED))
def test_seeded_trainers_refuse_ragged_seeds(trainer):
    with pytest.raises(ValueError, match=r"^seeds \[\[0\], \[1, 2\]\], not one per problem, "
                                         r"for a stack of 2 problems$"):
        SEEDED[trainer](*_problems(2), [[0], [1, 2]])


@pytest.mark.parametrize("seeds", [(np.int64(0), np.uint8(3)), np.array([0, 3]), range(0, 6, 3)],
                         ids=["numpy-scalars", "array", "range"])
@pytest.mark.parametrize("trainer", list(SEEDED))
def test_seeded_trainers_take_integer_seeds_of_any_form(trainer, seeds):
    X, y = _problems(2)
    fits = SEEDED[trainer](X, y, seeds)
    alone = SEEDED[trainer](X, y, [0, 3])
    if trainer == "forest":
        np.testing.assert_array_equal(fits.threshold, alone.threshold)
    else:
        for (model, _), (other, _) in zip(fits, alone):
            np.testing.assert_array_equal(model.W1, other.W1)


# ---- columns without a finite spread ----

SPREADLESS = {
    "overflowing squares": [1e265, 4e265, 2e265, 3e265],
    "inf": [1.0, np.inf, 2.0, 3.0],
    "nan": [1.0, 2.0, np.nan, 3.0],
}
STANDARDIZING = ["ae-head", "logreg", "lasso"]


@pytest.mark.parametrize("values", list(SPREADLESS))
@pytest.mark.parametrize("trainer", STANDARDIZING)
def test_standardizing_trainers_refuse_a_column_without_finite_spread(trainer, values):
    X = ROWS.copy()
    X[:, 1] = SPREADLESS[values]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        with pytest.raises(ValueError, match=r"^column 1 has no finite spread \(std (inf|nan)\)$"):
            TRAINERS[trainer](X[None], [[0, 1, 0, 1]])


def test_a_stack_names_the_problem_holding_a_column_without_finite_spread():
    X = np.stack([ROWS, ROWS, ROWS])
    X[1, :, 2] = SPREADLESS["overflowing squares"]
    X[2, :, 0] = SPREADLESS["inf"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(classifiers.ProblemError, match="^column 2 has no") as caught:
            classifiers.standardize_fit(X)
    assert caught.value.problem == 1
