"""The trainer layer as a whole: the four trainers share one input check."""

import numpy as np
import pytest

from convpred import autoencoder, classifiers
from convpred.autoencoder import AEConfig

TRAINERS = {
    "ae-head": lambda X, y: autoencoder.train(X, y, AEConfig(input_dim=3, epochs=2)),
    "logreg": classifiers.train_logistic,
    "lasso": classifiers.train_lasso,
    "forest": lambda X, y: classifiers.train_forest(X, y, n_trees=2),
}

ROWS = np.arange(12.0).reshape(4, 3)
BAD_INPUT = {
    "empty": (np.zeros((0, 3)), [], "non-empty"),
    "misaligned": (ROWS, [0, 1, 0], "align"),
    "label 2": (ROWS, [0, 1, 2, 1], "0 or 1"),
    "fractional label": (ROWS, [0, 0.5, 1, 1], "0 or 1"),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
@pytest.mark.parametrize("trainer", list(TRAINERS))
def test_trainers_reject_the_same_bad_input(trainer, case):
    X, y, message = BAD_INPUT[case]
    with pytest.raises(ValueError, match=message):
        TRAINERS[trainer](X, y)
