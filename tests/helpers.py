"""Builders for toy rankings and runs, and a forest tree check, used across the test modules."""

import math
from dataclasses import replace

import numpy as np

from convpred import classifiers
from convpred.core import ConversationRun, TurnRanking


def make_ranking(scores, embeddings, turn=1, query=None, ids=None, critique=None):
    """Items get ascending ids in list order, so sorted score order is valid."""
    ids = ids if ids is not None else [f"i{k:03d}" for k in range(len(scores))]
    return TurnRanking(
        turn=turn,
        items=tuple(ids),
        scores=scores,
        item_rows=embeddings,
        query_embedding=query,
        critique=critique,
    )


def make_run(turn_rankings, cid="c0", target="i000", target_ranks=None):
    return ConversationRun(cid, target, tuple(turn_rankings), target_ranks)


def oracle_run_dict(run):
    """The run file object of ``run`` as plain dicts and lists.

    ``json.dumps(oracle_run_dict(run), separators=(",", ":"), allow_nan=False)``
    is the reference for each line ``write_runs`` writes.
    """
    ranks = run.target_ranks
    return {
        "conversation_id": run.conversation_id,
        "target_id": run.target_id,
        "target_ranks": [None] * run.n_turns if ranks is None else list(ranks),
        "turns": [
            {
                "turn": ranking.turn,
                "query_embedding": None
                if ranking.query_embedding is None
                else ranking.query_embedding.tolist(),
                "critique": ranking.critique,
                "items": [
                    {"id": item_id, "score": score, "embedding": embedding}
                    for item_id, score, embedding in zip(
                        ranking.items, ranking.scores.tolist(), ranking.embeddings.tolist()
                    )
                ],
            }
            for ranking in run.turns
        ],
    }


def random_ranking(rng, n_items, dim, turn=1, with_query=False):
    emb = rng.standard_normal((n_items, dim))
    scores = np.sort(rng.standard_normal(n_items))[::-1]
    query = rng.standard_normal(dim) if with_query else None
    return make_ranking(scores.tolist(), emb, turn=turn, query=query)


def random_run(seed, n_turns=3, n_items=4, dim=3, cid="c0", with_query=False,
               with_ranks=False, with_critique=False):
    rng = np.random.default_rng(seed)
    turns = []
    for t in range(1, n_turns + 1):
        ranking = random_ranking(rng, n_items, dim, turn=t, with_query=with_query)
        if with_critique and t % 2 == 0:
            ranking = replace(ranking, critique=f"more like item {t}")
        turns.append(ranking)
    ranks = None
    if with_ranks:
        ranks = tuple(int(rng.integers(1, 50)) if rng.random() < 0.8 else None for _ in range(n_turns))
    return make_run(turns, cid=cid, target="i001", target_ranks=ranks)


def assert_same_tree(forest, node, expected):
    """The tree at index ``node`` of a forest's node arrays against the oracle's nested tuples:
    same shape, features, thresholds and counts."""
    if len(expected) == 2:
        assert forest.feature[node] < 0 and forest.counts[node].tolist() == list(expected)
        return
    feature, threshold, left, right = expected
    assert forest.feature[node] == feature
    value = forest.threshold[node]
    assert value == threshold or (math.isnan(value) and math.isnan(threshold))
    assert_same_tree(forest, forest.left[node], left)
    assert_same_tree(forest, forest.right[node], right)


def assert_same_trees(forest, roots, expected):
    """The trees at ``roots`` against the oracle's trees, one for one."""
    for root, oracle_tree in zip(roots, expected, strict=True):
        assert_same_tree(forest, root, oracle_tree)


class CountedChoices:
    """A tree's RNG that counts its ``choice`` calls, one per candidate draw."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def choice(self, *args, **kwargs):
        self.calls += 1
        return self.rng.choice(*args, **kwargs)


def counted_store(streams, key):
    """A fresh forest draw store for ``key``, put in ``streams``, whose RNGs count their draws."""
    store = classifiers._Substreams(*key)
    store.rngs = [CountedChoices(rng) for rng in store.rngs]
    streams[key] = store
    return store


def drawn_mask(store):
    """(waves, trees) booleans: which tree's draw of which wave the store holds."""
    return np.array([draws[:, 0] >= 0 for draws in store.waves]).reshape(-1, len(store.rngs))
