"""Mean embeddings of sample-sets in random-feature space.

The embedding of a sample is the average feature vector of its cells.
Because each phi(x) has unit norm, the embedding norm never exceeds 1.
"""

from __future__ import annotations

import numpy as np

from .data import SampleSet
from .rff import RffMap, featurize_batch

_CHUNK = 4096


def embed_matrix(rmap: RffMap, X: np.ndarray) -> np.ndarray:
    """Mean feature vector of the rows of X, with compensated summation.

    Cells are featurized in fixed chunks and chunk sums are combined with
    Kahan compensation, so reordering the rows moves the result by far less
    than 1e-9 per coordinate even for millions of cells.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot embed an empty set")
    total = np.zeros(rmap.D)
    comp = np.zeros(rmap.D)
    for start in range(0, n, _CHUNK):
        part = featurize_batch(rmap, X[start:start + _CHUNK]).sum(axis=0)
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / n


def mean_embedding(rmap: RffMap, sample: SampleSet) -> np.ndarray:
    """Embed one sample-set as the average phi over its cells: a length-D row."""
    return embed_matrix(rmap, sample.cells)


def naive_mean(sample: SampleSet) -> np.ndarray:
    """Per-feature arithmetic mean of the cells (the no-kernel baseline)."""
    if sample.n < 1:
        raise ValueError("cannot average an empty set")
    return sample.cells.mean(axis=0)

