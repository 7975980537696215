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
# featurize_batch stays bound here because perfbench/trace_cli.py wraps this name.
from .rff import RffMap, featurize_batch, featurize_f32trig, philox_rng  # noqa: F401

DEFAULT_CACHE_BYTES = 2 << 30  # cache trig values or K up to 2 GiB, else recompute per pick
# K comes from the Gram matrix only for n <= GRAM_MAX_N_PER_M * m, where one
# n x n x D product costs less than m scans of phi, and for n <= D, where K
# (n^2 doubles) is no larger than phi.
GRAM_MAX_N_PER_M = 8
# K is summed over blocks of GRAM_BLOCK frequencies, GRAM_ROWS rows of its upper
# triangle at a time, so no n x D phi or second n x n array is ever held.
GRAM_BLOCK = 125
GRAM_ROWS = 256
CHUNK_ROWS = 8192  # rows re-featurized at a time when phi is not cached
RESCORE_ROWS = 256  # float64 phi rows rebuilt at a time to rescore screened picks


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
    n <= D and K fits in max_cache_bytes, else from the float32 trig values
    of every cell (n x D float32) when those fit, else from phi recomputed
    chunk-wise; m picks read m - 1 columns, as no pick needs the last one's.
    Every source builds phi with featurize_f32trig (float32 sin/cos on
    arguments reduced in float64). The Gram and chunked sources are float64
    and pick the argmax; the scan source screens in float32 and certifies
    each pick in float64 (see _scan_source).
    """
    X = sample.cells
    n = X.shape[0]
    _check_m(m, n)
    if n <= GRAM_MAX_N_PER_M * m and n <= rmap.D and n * n * 8 <= max_cache_bytes:
        s0, column, pick = _gram_source(rmap, X)
    elif n * rmap.D * 4 <= max_cache_bytes:
        s0, column, pick = _scan_source(rmap, X)
    else:
        s0, column, pick = _chunked_source(rmap, X)
    scores = s0.copy()
    selected = np.empty(m, dtype=int)
    for t in range(m):
        i = pick(scores, t)
        selected[t] = i
        if t == m - 1:
            break  # no pick reads the column of the last one
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
        phi = featurize_f32trig(block, X)
        for r in range(0, n, GRAM_ROWS):
            K[r:r + GRAM_ROWS, r:] += phi[r:r + GRAM_ROWS] @ phi[r:].T
        del phi  # so two blocks of phi never coexist, which would raise peak RSS
    for r in range(0, n, GRAM_ROWS):
        K[r + GRAM_ROWS:, r:r + GRAM_ROWS] = K[r:r + GRAM_ROWS, r + GRAM_ROWS:].T
    return K.mean(axis=1), lambda i: K[i], _argmax


def _argmax(scores, t):
    return int(np.argmax(scores))  # first occurrence = smallest index on ties


def _scan_source(rmap, X):
    """Columns screened in float32 from cached trig values, picks certified in float64.

    t32 holds the float32 sin/cos, so phi = scale * t32 exactly and each
    pick reads n * D * 4 bytes. A float32 dot product of length D is within
    gamma_D = D u / (1 - D u), u = 2^-24, times sum_k |t_jk t_ik| <= D / 2
    (Cauchy-Schwarz on each sin/cos pair) of the exact one. Scaled by
    scale^2 = 2 / D in float64, a screened column entry is within gamma_D
    plus two float64 roundings, so within 2 gamma_D, of the float64 one, and
    after t picks the screened scores are within tol(t) ~ 2 t gamma_D of
    phi_j . theta(t).
    Every cell within 2 tol(t) of the top is rescored against theta(t),
    kept in float64, and the pick is the best float64 score, smallest index
    on ties: the pick the float64 loop makes, while reading half the bytes.
    """
    t32 = featurize_f32trig(rmap, X, raw=True)
    n, D = t32.shape
    scale = rmap.scale
    every = np.arange(n)
    theta0 = sum(_phi_rows(t32, scale, every[s:s + RESCORE_ROWS]).sum(axis=0)
                 for s in range(0, n, RESCORE_ROWS)) / n
    s0 = _exact_scores(t32, scale, theta0, every)
    theta = theta0.copy()
    first = _first_copies(X, t32)
    gamma_d = D * 2.0 ** -24 / (1 - D * 2.0 ** -24)

    def pick(scores, t):
        # the second term bounds the float64 roundings in s0, theta, the updates and the rescore
        tol = 2 * t * gamma_d + (t + 1) * (D + 2 * t + 2) * 2.0 ** -50
        i = _best(t32, scale, theta, np.flatnonzero(scores >= scores.max() - 2 * tol), first)
        theta[:] += theta0 - _phi_rows(t32, scale, [i])[0]
        return i

    # the float32 product, scaled in float64 (a Python float is a weak scalar,
    # so scale * scale * (t32 @ t32[i]) would round the scaling to float32)
    return s0, lambda i: np.multiply(t32 @ t32[i], scale * scale, dtype=np.float64), pick


def _phi_rows(t32, scale, rows):
    return np.multiply(t32[rows], scale, dtype=np.float64)


def _exact_scores(t32, scale, theta, rows):
    """phi[rows] @ theta in float64, RESCORE_ROWS rows at a time.

    A row-wise einsum gives identical rows bit-identical scores wherever
    they sit, which a BLAS GEMV on gathered rows does not.
    """
    out = np.empty(len(rows))
    for s in range(0, len(rows), RESCORE_ROWS):
        phi = _phi_rows(t32, scale, rows[s:s + RESCORE_ROWS])
        out[s:s + RESCORE_ROWS] = np.einsum("ij,j->i", phi, theta)
    return out


def _best(t32, scale, theta, rows, first):
    """The row of rows (ascending) with the best exact score, smallest on ties.

    Copies share a score, so each group of copies is rescored once.
    """
    groups, where = np.unique(first[rows], return_inverse=True)
    return int(rows[np.argmax(_exact_scores(t32, scale, theta, groups)[where])])


def _first_copies(X, t32):
    """For each row, the first row holding the same cell and the same trig values."""
    cells = np.ascontiguousarray(X).view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    _, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
    first = first[inverse]
    copies = np.flatnonzero(first != np.arange(len(first)))
    for s in range(0, len(copies), RESCORE_ROWS):
        c = copies[s:s + RESCORE_ROWS]
        differ = c[(t32[c] != t32[first[c]]).any(axis=1)]
        first[differ] = differ
    return first


def _chunked_source(rmap, X):
    n = X.shape[0]

    def chunks():
        return (featurize_f32trig(rmap, X[s:s + CHUNK_ROWS]) for s in range(0, n, CHUNK_ROWS))

    def phi_times(v):
        return np.concatenate([c @ v for c in chunks()])

    theta0 = sum(c.sum(axis=0) for c in chunks()) / n
    return (phi_times(theta0), lambda i: phi_times(featurize_f32trig(rmap, X[i:i + 1])[0]),
            _argmax)


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
