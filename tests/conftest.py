from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from setkernel import SampleSet, sample_frequencies
from setkernel.interpret import _midranks

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


def brute_force_rank_sum_p(a: Sequence[float], b: Sequence[float]) -> float:
    """Independent oracle: enumerate every group-1 subset explicitly.

    Only feasible for small inputs; used to validate the exact path.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    n1, n = a.shape[0], a.shape[0] + b.shape[0]
    ranks2 = np.rint(2.0 * _midranks(np.concatenate([a, b]))).astype(np.int64)
    e2 = n1 * (n + 1)
    obs = abs(int(ranks2[:n1].sum()) - e2)
    extreme = 0
    total = 0
    for subset_idx in combinations(range(n), n1):
        total += 1
        if abs(int(ranks2[list(subset_idx)].sum()) - e2) >= obs:
            extreme += 1
    return extreme / total
