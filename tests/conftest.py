from itertools import combinations
from math import erfc, sqrt
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from setkernel import SampleSet, sample_frequencies

# Written by the version-1 save_model (d=2, D=64), which also stored W.
MODEL_V1 = Path(__file__).resolve().parent / "data" / "model_v1.txt"


@pytest.fixture(scope="session")
def small_map():
    return sample_frequencies(d=2, D=64, gamma=1.0, seed=1234)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_sample(cells, sample_id="s", markers=None):
    cells = np.atleast_2d(np.asarray(cells, dtype=float))
    if markers is None:
        markers = tuple(f"f{j}" for j in range(cells.shape[1]))
    return SampleSet(cells=cells, sample_id=sample_id, marker_names=markers)


def loop_midranks(values: np.ndarray) -> np.ndarray:
    """Reference midranks: walk the stably sorted values, one tie run at a time."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0])
    i = 0
    while i < values.shape[0]:
        j = i
        while j + 1 < values.shape[0] and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def brute_force_rank_sum_p(a: Sequence[float], b: Sequence[float],
                           normal: bool = False) -> float:
    """Independent oracle: enumerate every group-1 subset explicitly.

    Only feasible for small inputs or a small group 1. By default the exact
    p-value, which validates the exact path. With normal, the normal
    approximation with continuity correction whose null variance is the
    enumerated distribution's, which validates the normal path's tie term.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    n1, n = a.shape[0], a.shape[0] + b.shape[0]
    ranks2 = np.rint(2.0 * loop_midranks(np.concatenate([a, b]))).astype(np.int64)
    e2 = n1 * (n + 1)
    obs = abs(int(ranks2[:n1].sum()) - e2)
    devs = np.array([int(ranks2[list(subset_idx)].sum()) - e2
                     for subset_idx in combinations(range(n), n1)])
    if not normal:
        return float(np.sum(np.abs(devs) >= obs)) / len(devs)
    var = float(np.mean((devs / 2.0) ** 2))  # the doubled rank sums' deviations, halved
    if var == 0.0:
        return 1.0
    return erfc(max(0.0, obs / 2.0 - 0.5) / sqrt(var) / sqrt(2.0))
