"""A fixed reference job, timed beside every run to express run time in its units.

The benchmark shares its host with others, and the host's speed drifts by up
to about 1.8x over seconds to minutes; every wall time drifts with it. The
reference job does a fixed mix of the kinds of work convpred does:
interpreted loops, JSON encoding and decoding, and small numpy kernels. It is
timed right after every run of the workload, so each timed run has a
reference time on either side of it. A run's wall time over the mean of the
two is its time in reference units (``wall_rel``): host drift moves both
nearly alike, while a change to convpred moves only the run. Nothing in the
job depends on convpred or on the seed.
"""

from __future__ import annotations

import gc
import json
import random
import time

import numpy as np

_rng = random.Random(0)
_DOC = [
    {"id": f"item_{i}", "score": _rng.random(), "embedding": [_rng.random() for _ in range(32)]}
    for i in range(400)
]
_MATRIX = np.random.default_rng(0).standard_normal((200, 64))


def job() -> None:
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(3):
        json.loads(json.dumps(_DOC))
    for _ in range(200):
        (_MATRIX @ _MATRIX.T).sum()
        np.sort(_MATRIX, axis=0)


def timed() -> float:
    gc.collect()  # garbage of the run before is not the job's work
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


def relative(walls: list[float], refs: list[float]) -> list[float]:
    """Each wall time over the mean of the reference times just before and after it.

    ``refs[i]`` is timed just before ``walls[i]`` and ``refs[i + 1]`` just after.
    """
    if len(refs) != len(walls) + 1:
        raise ValueError(f"{len(walls)} runs need {len(walls) + 1} reference times, got {len(refs)}")
    return [wall / ((before + after) / 2) for wall, before, after in zip(walls, refs, refs[1:])]
