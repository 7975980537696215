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

# K, or as many rows of the screen's trig values as fit, is held in up to 2 GiB;
# trig rows past that are recomputed at each pick
DEFAULT_CACHE_BYTES = 2 << 30
# K comes from the Gram matrix only for n <= GRAM_MAX_N_PER_M * m, where one
# n x n x D product costs less than m screened picks (README "Herding" has the
# measured crossover), and for n <= D, where K (n^2 doubles) is no larger than phi.
GRAM_MAX_N_PER_M = 6
# K is summed over blocks of GRAM_BLOCK frequencies, GRAM_ROWS rows of its upper
# triangle at a time, so no n x D phi or second n x n array is ever held.
GRAM_BLOCK = 125
GRAM_ROWS = 256
CHUNK_ROWS = 256  # uncached trig rows recomputed at a time for a pick's product
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

    Deterministic, ties to the smallest index. Pick t takes the best untaken
    phi_j . theta(t), then theta += theta0 - phi_i, with theta0 the mean of
    phi = scale * t32 (t32: featurize_f32trig's float32 sin/cos). _gram_picks
    scores from float64 K = phi phi^T when n <= GRAM_MAX_N_PER_M * m, n <= D
    and K fits in max_cache_bytes; else _scan_source screens each pick on t32
    from _trig_source, which caches the rows of t32 that fit in
    max_cache_bytes and recomputes the rest at each pick. The screen holds X,
    O(n) vectors, RESCORE_ROWS rows and the cached rows: all of
    max_cache_bytes once n * D * 4 bytes exceed it. Copies of a cell have
    equal t32 rows and score bit-identically, so they go in storage order.
    Each copy near the top is rescored on its own: a sample with many copies
    of one cell rescores them at many picks (README "Herding" has timings).
    """
    X = sample.cells
    n = X.shape[0]
    _check_m(m, n)
    if n <= GRAM_MAX_N_PER_M * m and n <= rmap.D and n * n * 8 <= max_cache_bytes:
        selected = _gram_picks(_gram_source(rmap, X), m)
    else:
        selected = _scan_source(rmap, n, *_trig_source(rmap, X, max_cache_bytes), m)
    return HerdingResult(selected_indices=tuple(selected), method="herding", m=m)


def _gram_source(rmap, X):
    """K = phi phi^T, its upper triangle summed block by block, then mirrored."""
    n = X.shape[0]
    K = np.zeros((n, n))
    for start in range(0, rmap.W.shape[1], GRAM_BLOCK):
        W = rmap.W[:, start:start + GRAM_BLOCK]
        block = RffMap(W=W, gamma=rmap.gamma, D=2 * W.shape[1], seed=rmap.seed,
                       scale=rmap.scale)
        phi = np.empty((n, block.D))
        for r in reversed(range(0, n, GRAM_ROWS)):  # so phi[r:] is filled when read
            np.multiply(featurize_f32trig(block, X[r:r + GRAM_ROWS]), rmap.scale,
                        out=phi[r:r + GRAM_ROWS], dtype=np.float64)  # as _phi_rows scales
            K[r:r + GRAM_ROWS, r:] += phi[r:r + GRAM_ROWS] @ phi[r:].T
        del phi  # so two blocks of phi never coexist, which would raise peak RSS
    for r in range(0, n, GRAM_ROWS):
        K[r + GRAM_ROWS:, r:r + GRAM_ROWS] = K[r:r + GRAM_ROWS, r + GRAM_ROWS:].T
    return K


def _gram_picks(K, m):
    """m picks from float64 scores s += s0 - K[i]: m - 1 rows of K, none for the last."""
    s0 = K.mean(axis=1)
    scores = s0.copy()
    selected = np.empty(m, dtype=int)
    for t in range(m):
        i = selected[t] = np.argmax(scores)  # first occurrence = smallest index on ties
        if t == m - 1:
            break
        scores += s0 - K[i]
        scores[i] = -np.inf  # stays -inf: taken cells are never picked again
    return selected


def _trig_source(rmap, X, max_cache_bytes):
    """_scan_source's trig rows and products: t32 cached for the rows that fit.

    The first max_cache_bytes // (4 D) rows of t32 are held; each product
    recomputes the rows after them CHUNK_ROWS at a time, and trig(rows)
    featurizes just the uncached rows asked for. featurize_f32trig gives a
    row the same bits in any block, so a recomputed row is the one screened.
    """
    k = min(len(X), max_cache_bytes // (4 * rmap.D))
    t32 = featurize_f32trig(rmap, X[:k])
    if k == len(X):
        return t32.__getitem__, t32.__matmul__

    def trig(rows):
        rows = np.asarray(rows)
        out = np.empty((len(rows), rmap.D), np.float32)
        out[rows < k] = t32[rows[rows < k]]
        out[rows >= k] = featurize_f32trig(rmap, X[rows[rows >= k]])
        return out

    return trig, lambda v: np.concatenate(
        [t32 @ v] + [featurize_f32trig(rmap, X[s:s + CHUNK_ROWS]) @ v
                     for s in range(k, len(X), CHUNK_ROWS)])


def _scan_source(rmap, n, trig, products, m):
    """The m picks, each screened in float32 and certified in float64.

    trig(rows) returns t32[rows] of the n rows, phi = scale * t32, and
    products(v) the float32 t32 @ v, both from _trig_source.
    Pick t screens s, tol = _screen(products, theta, scale). As |t_jk| <= 1,
    sum_k |t_jk theta_k| <= sqrt(D) ||theta||_2, so rounding theta to float32
    (u = 2^-24) and the float32 dot product summed in any order (gamma_D =
    D u / (1 - D u)) keep |s_j - phi_j . theta| <= scale sqrt(D) (u + gamma_D
    (1 + u)) ||theta||_2. The float64 scaling, rescore, norm and window add
    under scale sqrt(D) (D + 4) 2^-51 ||theta||_2, float32 underflow under
    scale D 2^-124. This tol holds per pick: it does not grow with t. Each
    cell within 2 tol of the top is rescored against theta, kept in float64,
    and the best float64 score wins, smallest index on ties, however s rounds.
    """
    scale = rmap.scale
    theta0 = sum(_phi_rows(trig, scale, np.arange(s, min(s + RESCORE_ROWS, n))).sum(axis=0)
                 for s in range(0, n, RESCORE_ROWS)) / n
    theta = theta0.copy()
    selected = np.empty(m, dtype=int)
    for t in range(m):
        scores, tol = _screen(products, theta, scale)
        scores[selected[:t]] = -np.inf
        rows = np.flatnonzero(scores >= scores.max() - 2 * tol)
        i = selected[t] = rows[np.argmax(_exact_scores(trig, scale, theta, rows))]
        theta += theta0 - _phi_rows(trig, scale, [i])[0]
    return selected


def _screen(products, theta, scale):
    """scale * (t32 @ float32(theta)), scaled in float64 as _phi_rows scales, and tol."""
    D, u = len(theta), 2.0 ** -24
    rel = u + D * u / (1 - D * u) * (1 + u) + (D + 4) * 2.0 ** -51
    tol = scale * (np.sqrt(D) * rel * np.linalg.norm(theta) + D * 2.0 ** -124)
    return np.multiply(products(theta.astype(np.float32)), scale, dtype=np.float64), tol


def _phi_rows(trig, scale, rows):
    return np.multiply(trig(rows), scale, dtype=np.float64)


def _exact_scores(trig, scale, theta, rows):
    """phi[rows] @ theta in float64, RESCORE_ROWS rows at a time.

    A row-wise einsum gives identical rows bit-identical scores wherever
    they sit, which a BLAS GEMV on gathered rows does not.
    """
    out = np.empty(len(rows))
    for s in range(0, len(rows), RESCORE_ROWS):
        phi = _phi_rows(trig, scale, rows[s:s + RESCORE_ROWS])
        out[s:s + RESCORE_ROWS] = np.einsum("ij,j->i", phi, theta)
        del phi  # so the next block's phi is not built beside this one
    return out


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
