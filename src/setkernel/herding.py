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
from .workers import in_flight

# t32, or as many of its rows as fit, and K32 when it is used, are held in up to
# 2 GiB; trig rows past that are recomputed at each pick
DEFAULT_CACHE_BYTES = 2 << 30
# K32 = t32 t32^T scores the picks between screen products only for
# n <= GRAM_MAX_N_PER_M * m, where building it costs less than the screen products
# it saves (README "Herding" has the measured crossover), and for n <= D, where
# K32 (n^2 floats) is no larger than t32.
GRAM_MAX_N_PER_M = 12
GRAM_TILE = 256  # K32's upper triangle is computed, and mirrored, in square tiles
GRAM_REFRESH = 16  # picks per screen product with K32; each screen resets tol
CHUNK_ROWS = 256  # uncached trig rows recomputed at a time for a pick's product
THETA0_ROWS = 256  # float64 phi rows summed at a time into theta0, whose bits this sets
RESCORE_ROWS = 16  # float64 phi rows rebuilt at a time to rescore screened picks


@dataclass(frozen=True)
class HerdingResult:
    """Distinct row indices into the parent sample, in selection order."""

    selected_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.selected_indices)
        if len(set(idx)) != len(idx):
            raise ValueError("selected indices must be distinct")
        object.__setattr__(self, "selected_indices", idx)


def _check_m(m: int, n: int) -> None:
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m > n:
        raise ValueError(f"m={m} exceeds set size n={n}")


def herd(rmap: RffMap, sample: SampleSet, m: int) -> HerdingResult:
    """Greedily select m cells whose mean feature vector tracks the full set.

    Deterministic, ties to the smallest index. Pick t takes the best untaken
    phi_j . theta(t), then theta += theta0 - phi_i, with theta0 the mean of
    phi = scale * t32 (t32: featurize_f32trig's float32 sin/cos). Every pick
    is certified by _scan_source. Its float32 scores come from a screen
    product per pick or, when n <= GRAM_MAX_N_PER_M * m, n <= D and t32 and
    K32 = t32 t32^T fit in the cache budget as n (n + D) * 4 bytes, from rows
    of K32 between screens. _trig_source caches the rows of t32 that fit in
    the budget and recomputes the rest at each pick. Copies of a cell have
    equal t32 rows and score bit-identically, so they go in storage order;
    each copy near the top is rescored on its own (README "Herding" has
    memory and timings). The budget is this process's share of
    DEFAULT_CACHE_BYTES, DEFAULT_CACHE_BYTES // workers.in_flight(), so the
    herds of a pooled map stay within it together.
    """
    X = sample.cells
    n = X.shape[0]
    _check_m(m, n)
    cache_bytes = DEFAULT_CACHE_BYTES // in_flight()
    t32, trig, products = _trig_source(rmap, X, cache_bytes)
    gram = n <= GRAM_MAX_N_PER_M * m and n <= rmap.D and n * (n + rmap.D) * 4 <= cache_bytes
    selected = _scan_source(rmap, n, trig, products, m, t32 if gram else None)
    return HerdingResult(selected_indices=tuple(selected))


def _gram32(t32):
    """K32 = t32 t32^T in float32, its upper triangle one GEMM per tile, mirrored.

    GEMMs GRAM_TILE columns wide pack less into BLAS buffers than wider ones,
    and t32 @ t32.T would go to SYRK, whose buffers take more still.
    """
    n, b = len(t32), GRAM_TILE
    K32 = np.empty((n, n), np.float32)
    for r in range(0, n, b):
        for c in range(r, n, b):
            np.matmul(t32[r:r + b], t32[c:c + b].T, out=K32[r:r + b, c:c + b])
            if c > r:
                K32[c:c + b, r:r + b] = K32[r:r + b, c:c + b].T
    return K32


def _trig_source(rmap, X, cache_bytes):
    """_scan_source's trig rows and products, and t32 of the rows that fit.

    The first cache_bytes // (4 D) rows of t32 are held; each product
    recomputes the rows after them CHUNK_ROWS at a time, and trig(rows)
    featurizes just the uncached rows asked for. featurize_f32trig gives a
    row the same bits in any block, so a recomputed row is the one screened.
    """
    k = min(len(X), cache_bytes // (4 * rmap.D))
    t32 = featurize_f32trig(rmap, X[:k])
    if k == len(X):
        return t32, t32.__getitem__, t32.__matmul__

    def trig(rows):
        rows = np.arange(*rows.indices(len(X))) if isinstance(rows, slice) else np.asarray(rows)
        out = np.empty((len(rows), rmap.D), np.float32)
        out[rows < k] = t32[rows[rows < k]]
        out[rows >= k] = featurize_f32trig(rmap, X[rows[rows >= k]])
        return out

    return t32, trig, lambda v: np.concatenate(
        [t32 @ v] + [featurize_f32trig(rmap, X[s:s + CHUNK_ROWS]) @ v
                     for s in range(k, len(X), CHUNK_ROWS)])


def _scan_source(rmap, n, trig, products, m, t32=None):
    """The m picks, each screened in float32 and certified in float64.

    trig(rows) returns t32[rows] of the n rows (rows may be a slice), phi =
    scale * t32, and products(v) the float32 t32 @ v, both from _trig_source.
    A screen gives s, tol = _screen(products, theta, scale). As |t_jk| <= 1,
    sum_k |t_jk theta_k| <= sqrt(D) ||theta||_2, so rounding theta to float32
    (u = 2^-24) and the float32 dot product summed in any order (gamma_D =
    D u / (1 - D u)) keep |s_j - phi_j . theta| <= scale sqrt(D) (u + gamma_D
    (1 + u)) ||theta||_2. The float64 scaling, rescore, norm and window add
    under scale sqrt(D) (D + 4) 2^-51 ||theta||_2, float32 underflow under
    scale D 2^-124. This tol holds per pick: it does not grow with t.
    Given t32 (all n rows), K32 = _gram32(t32), built once theta0's blocks are
    freed, replaces the screens between every GRAM_REFRESH-th pick: s += s0 -
    scale^2 K32[i] in float64, with s0, tol0 the first screen's. Summed in any
    order, |K32_ij - t_i . t_j| <= gamma_D D, so tol grows per step by tol0 +
    e_K, e_K = scale^2 D gamma_D, plus e_F = S (S (D + 6) + ||theta||_2) 2^-49
    (S = scale sqrt(D)) for the float64 roundings of the step, of phi and of
    the theta recurrence, the rescore terms' growth with ||theta|| and
    underflow in K32, times 1 + 2^-50 for the rounding of s by its own error
    and of tol (README "Herding" derives each term). Each cell within 2 tol
    of the top is rescored against theta, kept in float64, and the best
    float64 score wins, smallest index on ties, however s rounds.
    """
    scale = rmap.scale
    theta0 = sum(_phi_rows(trig, scale, slice(s, s + THETA0_ROWS)).sum(axis=0)
                 for s in range(0, n, THETA0_ROWS)) / n  # slices: cached rows are not copied
    theta = theta0.copy()
    K32 = None if t32 is None else _gram32(t32)
    D, u = rmap.D, 2.0 ** -24
    S = scale * np.sqrt(D)
    step = S * S * (D * u / (1 - D * u) + (D + 6) * 2.0 ** -49)  # e_K and e_F's S^2 terms
    selected = np.empty(m, dtype=int)
    for t in range(m):
        if K32 is None or t % GRAM_REFRESH == 0:
            scores, tol = _screen(products, theta, scale)
            if t == 0:
                s0, tol0 = scores.copy(), tol
        else:
            scores += s0 - np.multiply(K32[i], scale * scale, dtype=np.float64)
            tol = (tol + tol0 + step + S * np.linalg.norm(theta) * 2.0 ** -49) * (1 + 2.0 ** -50)
        scores[selected[:t]] = -np.inf
        rows = np.flatnonzero(scores >= scores.max() - 2 * tol)
        exact, phi_i = _exact_scores(trig, scale, theta, rows)
        i = selected[t] = rows[np.argmax(exact)]
        theta += theta0 - phi_i
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
    """phi[rows] @ theta in float64, RESCORE_ROWS rows at a time, and the phi
    row of their argmax (the first on ties), which herding steps theta by.

    A row-wise einsum gives identical rows bit-identical scores wherever
    they sit, which a BLAS GEMV on gathered rows does not.
    """
    out, best = np.empty(len(rows)), None
    for s in range(0, len(rows), RESCORE_ROWS):
        phi = _phi_rows(trig, scale, rows[s:s + RESCORE_ROWS])
        out[s:s + RESCORE_ROWS] = np.einsum("ij,j->i", phi, theta)
        k = s + np.argmax(out[s:s + RESCORE_ROWS])
        if best is None or out[k] > out[top]:  # an earlier block keeps a tie
            top, best = k, phi[k - s].copy()  # a copy, so this block is freed
        del phi  # so the next block's phi is not built beside this one
    return out, best


def uniform_subsample(sample: SampleSet, m: int, seed: int) -> HerdingResult:
    """m distinct indices drawn uniformly (partial Fisher-Yates, seeded)."""
    n = sample.n
    _check_m(m, n)
    rng = philox_rng(seed)
    idx = np.arange(n)
    for i in range(m):
        j = i + int(rng.integers(0, n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return HerdingResult(selected_indices=tuple(int(i) for i in idx[:m]))


def subset(sample: SampleSet, result: HerdingResult) -> SampleSet:
    """New sample containing exactly the selected cells, in selection order."""
    idx = np.asarray(result.selected_indices, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= sample.n):
        raise ValueError(f"index out of range for set of size {sample.n}")
    return SampleSet(cells=sample.cells[idx], sample_id=sample.sample_id,
                     marker_names=sample.marker_names)
