"""Failure prediction for multi-turn conversational recommendation runs.

The library turns per-turn ranked retrieval runs (with item embeddings) into
found/not-found predictions: feature extraction over ranked lists, an
autoencoder predictor with a classification head, linear and forest baselines,
scenario labeling (system vs. catalogue failure), and a turn-pair evaluation
protocol with McNemar significance testing. A synthetic conversation
generator makes the whole pipeline runnable at desk scale.
"""

from .core import ConversationRun, TurnRanking, ValidationError
from .data_io import GenConfig, calibration_config, generate_synthetic, read_runs, write_runs
from .scenario import LabelSet, induce_missing, label_runs
from .evaluation import EvalSettings, Split, mcnemar, run_turn_pair, split_conversations

__version__ = "0.1.0"

__all__ = [
    "ConversationRun",
    "TurnRanking",
    "ValidationError",
    "GenConfig",
    "calibration_config",
    "generate_synthetic",
    "read_runs",
    "write_runs",
    "LabelSet",
    "induce_missing",
    "label_runs",
    "EvalSettings",
    "Split",
    "mcnemar",
    "run_turn_pair",
    "split_conversations",
    "__version__",
]
