"""Greedy kernel-herding sub-selection of cells, plus the uniform baseline.

Herding repeatedly picks the cell whose feature vector best aligns with a
running residual of the full-set embedding; the first m picks track the full
embedding far better than m uniform draws. Selection is without replacement
so exactly m distinct cells come back, in greedy order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SampleSet
from .rff import RffMap, featurize_batch, philox_rng

DEFAULT_CACHE_BYTES = 2 << 30  # cache phi(X) or K up to 2 GiB, else recompute per pick
# K comes from the Gram matrix only for n <= GRAM_MAX_N_PER_M * m, where one
# n x n x D product costs less than m scans of phi, and for n <= D, where K
# (n^2 doubles) is no larger than phi.
GRAM_MAX_N_PER_M = 8
# K is summed over blocks of GRAM_BLOCK frequencies, GRAM_ROWS rows of its upper
# triangle at a time, so no n x D phi or second n x n array is ever held.
GRAM_BLOCK = 125
GRAM_ROWS = 256
CHUNK_ROWS = 8192  # rows re-featurized at a time when phi is not cached


@dataclass(frozen=True)
class HerdingResult:
    """m distinct row indices into the parent sample, in selection order."""

    selected_indices: tuple[int, ...]
    method: str
    m: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.selected_indices)
        if len(idx) != self.m:
            raise ValueError(f"{len(idx)} indices for m={self.m}")
        if len(set(idx)) != len(idx):
            raise ValueError("selected indices must be distinct")
        if self.method not in ("herding", "uniform"):
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "selected_indices", idx)


def _check_m(m: int, n: int) -> None:
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m > n:
        raise ValueError(f"m={m} exceeds set size n={n}")


def herd(rmap: RffMap, sample: SampleSet, m: int,
         max_cache_bytes: int = DEFAULT_CACHE_BYTES) -> HerdingResult:
    """Greedily select m cells whose mean feature vector tracks the full set.

    Deterministic: no randomness in the loop, argmax ties break to the
    smallest index. The scores s = phi @ theta are updated in place: the
    step theta += theta0 - phi_i gives s += s0 - K[:, i], with K = phi phi^T.
    The column K[:, i] comes from the Gram matrix when n <= GRAM_MAX_N_PER_M * m,
    n <= D and K fits in max_cache_bytes, else from cached phi (n x D) when
    that fits, else from phi recomputed chunk-wise on every pick.
    """
    X = sample.cells
    n = X.shape[0]
    _check_m(m, n)
    if n <= GRAM_MAX_N_PER_M * m and n <= rmap.D and n * n * 8 <= max_cache_bytes:
        s0, column = _gram_source(rmap, X)
    elif n * rmap.D * 8 <= max_cache_bytes:
        s0, column = _scan_source(rmap, X)
    else:
        s0, column = _chunked_source(rmap, X)
    scores = s0.copy()
    selected = np.empty(m, dtype=int)
    for t in range(m):
        i = int(np.argmax(scores))  # first occurrence = smallest index on ties
        selected[t] = i
        scores += s0 - column(i)
        scores[i] = -np.inf  # stays -inf: taken cells are never picked again
    return HerdingResult(selected_indices=tuple(selected), method="herding", m=m)


def _gram_source(rmap, X):
    """K = phi phi^T, its upper triangle summed block by block, then mirrored."""
    n = X.shape[0]
    K = np.zeros((n, n))
    for start in range(0, rmap.W.shape[1], GRAM_BLOCK):
        W = rmap.W[:, start:start + GRAM_BLOCK]
        block = RffMap(W=W, gamma=rmap.gamma, D=2 * W.shape[1], seed=rmap.seed,
                       scale=rmap.scale)
        phi = featurize_batch(block, X)
        for r in range(0, n, GRAM_ROWS):
            K[r:r + GRAM_ROWS, r:] += phi[r:r + GRAM_ROWS] @ phi[r:].T
    for r in range(0, n, GRAM_ROWS):
        K[r + GRAM_ROWS:, r:r + GRAM_ROWS] = K[r:r + GRAM_ROWS, r + GRAM_ROWS:].T
    return K.mean(axis=1), lambda i: K[i]


def _scan_source(rmap, X):
    phi = featurize_batch(rmap, X)
    return phi @ phi.mean(axis=0), lambda i: phi @ phi[i]


def _chunked_source(rmap, X):
    n = X.shape[0]

    def chunks():
        return (featurize_batch(rmap, X[s:s + CHUNK_ROWS]) for s in range(0, n, CHUNK_ROWS))

    def phi_times(v):
        return np.concatenate([c @ v for c in chunks()])

    theta0 = sum(c.sum(axis=0) for c in chunks()) / n
    return phi_times(theta0), lambda i: phi_times(featurize_batch(rmap, X[i:i + 1])[0])


def uniform_subsample(sample: SampleSet, m: int, seed: int) -> HerdingResult:
    """m distinct indices drawn uniformly (partial Fisher-Yates, seeded)."""
    n = sample.n
    _check_m(m, n)
    rng = philox_rng(seed)
    idx = np.arange(n)
    for i in range(m):
        j = i + int(rng.integers(0, n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return HerdingResult(selected_indices=tuple(int(i) for i in idx[:m]),
                         method="uniform", m=m)


def subset(sample: SampleSet, result: HerdingResult) -> SampleSet:
    """New sample containing exactly the selected cells, in selection order."""
    idx = np.asarray(result.selected_indices, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= sample.n):
        raise ValueError(f"index out of range for set of size {sample.n}")
    return SampleSet(cells=sample.cells[idx], sample_id=sample.sample_id,
                     marker_names=sample.marker_names)
