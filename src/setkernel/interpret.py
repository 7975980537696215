"""Per-cell scores and the region-level analyses built on top of them.

A cell's score is phi(x).beta + bias, so the decision value of a sample is
exactly the mean of its cell scores. Regions come from k-means over pooled
sub-selected cells; each region gets two scores (its centroid scored
directly, and the average of its member-cell scores), a per-sample frequency
vector, a score gradient, and a rank-sum test on frequency differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, erfc, sqrt
from typing import Sequence

import numpy as np

from .classifier import LinearModel, solve_hinge
from .data import SampleSet
from .errors import NumericalError
from .rff import featurize_batch, philox_rng

SCORE_ROWS = 128  # cells featurized and scored at a time (2 MB of phi at D=2000)
KMEANS_MAX_ITER = 300  # Lloyd iterations before kmeans stops unconverged


@dataclass(frozen=True)
class ClusterModel:
    """k-means centroids (C x d, C >= 2) with assignments for the cells they were
    fit on, each a centroid id in [0, C). C is the centroid count.

    inertia_history holds one inertia per Lloyd step run, and converged says
    whether the assignments settled before KMEANS_MAX_ITER steps.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    inertia_history: tuple[float, ...] = ()
    converged: bool = False

    def __post_init__(self):
        centroids = np.asarray(self.centroids, dtype=np.float64)
        if centroids.ndim != 2 or len(centroids) < 2:
            raise ValueError("expected a C x d centroid matrix with C >= 2, "
                             f"got shape {centroids.shape}")
        assignments = np.asarray(self.assignments)
        if (assignments.ndim != 1 or not np.issubdtype(assignments.dtype, np.integer)
                or not np.all((assignments >= 0) & (assignments < len(centroids)))):
            raise ValueError(f"expected a 1-D array of centroid ids in [0, {len(centroids)}), "
                             f"got {assignments.dtype} shape {assignments.shape}")
        centroids = centroids.copy()
        centroids.setflags(write=False)
        assignments = assignments.astype(int)
        assignments.setflags(write=False)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "assignments", assignments)

    @property
    def C(self) -> int:
        return len(self.centroids)

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class RegionScores:
    """Region-level outputs: both score variants plus per-sample frequencies, one
    row per sample in the order region_scores was given them."""

    centroid_scores: np.ndarray  # (C,)
    average_scores: np.ndarray   # (C,)
    frequencies: np.ndarray      # (N, C), rows on the simplex


def cell_scores(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Scores phi(x).beta + bias for each row of X.

    Rows are featurized SCORE_ROWS at a time into one SCORE_ROWS x D buffer,
    so no n x D phi is held, and each block is scored by the same
    fixed-shape product phi @ beta. BLAS rounds a row of a product by the
    product's shape (a lone row's dot product rounds differently from a
    block's matrix-vector product, and a threaded BLAS splits a block at
    multiples of four rows), so a cell's score has the same bits alone, in
    any subset, order or block of cells, and at any BLAS thread count. They
    equal the one-shot featurize_batch(X) @ beta + bias bit for bit where
    that product also takes every row four at a time (n a multiple of four,
    on one or two threads), and within a few ulps elsewhere.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    out = np.empty(n)
    phi = np.zeros((SCORE_ROWS, model.rff.D))  # past a short last block, rows go unused
    for start in range(0, n, SCORE_ROWS):
        rows = min(SCORE_ROWS, n - start)
        phi[:rows] = featurize_batch(model.rff, X[start:start + rows])
        out[start:start + rows] = (phi @ model.beta)[:rows] + model.bias
    return out


def _sq_dists(X: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances (n x C) from the rows of X, of squared norms sq_norms,
    to the centroids."""
    d2 = (
        sq_norms[:, None]
        - 2.0 * (X @ centroids.T)
        + np.sum(centroids * centroids, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def kmeans(X: np.ndarray, C: int, seed: int) -> ClusterModel:
    """Lloyd's algorithm from a seeded k-means++ start.

    Deterministic for a fixed seed; stops after KMEANS_MAX_ITER iterations if
    the assignments have not settled, and the model's converged says which.
    Empty clusters are repaired by reseeding with the point farthest from
    its assigned centroid.

    Non-finite cells are refused. The rows are then scanned, without a sorted
    copy, until C distinct cells are found (-0.0 and 0.0 count as one value);
    with fewer, the ValueError names how many there are. Beyond X, k-means
    needs one n x d scratch buffer, the row norms and the n x C distances.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if C < 2:
        raise ValueError(f"C must be >= 2, got {C}")
    if not np.isfinite(X).all():
        raise ValueError("cells must be finite for k-means")
    n_distinct = _count_distinct(X, C)
    if n_distinct < C:
        raise ValueError(f"only {n_distinct} distinct cells for C={C} clusters")
    centroids = _kmeanspp_init(X, C, seed)
    sq_norms = np.sum(X * X, axis=1)
    assignments = np.argmin(_sq_dists(X, sq_norms, centroids), axis=1)
    history = []
    converged = False
    for _ in range(KMEANS_MAX_ITER):
        _recenter(X, centroids, assignments)
        d2 = _sq_dists(X, sq_norms, centroids)
        _repair_empty(X, centroids, assignments, d2)
        new_assignments = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_assignments].sum()))
        converged = np.array_equal(new_assignments, assignments)
        assignments = new_assignments
        if converged:
            break
    # final pass: centroids consistent with final assignments, and vice versa
    _recenter(X, centroids, assignments)
    d2 = _sq_dists(X, sq_norms, centroids)
    assignments = np.argmin(d2, axis=1)
    _repair_empty(X, centroids, assignments, d2)  # a cluster the last reassignment emptied
    inertia = float(d2[np.arange(n), assignments].sum())
    return ClusterModel(centroids=centroids, assignments=assignments, inertia=inertia,
                        inertia_history=tuple(history), converged=converged)


def _count_distinct(X: np.ndarray, C: int) -> int:
    """The number of distinct rows of the finite X, counted up to C.

    Adding 0.0 turns -0.0 into 0.0, so equal rows have equal bytes.
    """
    seen = set()
    for row in X:
        seen.add((row + 0.0).tobytes())
        if len(seen) == C:
            break
    return len(seen)


def _recenter(X: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> None:
    """Move each non-empty cluster's centroid to the mean of its cells, in place."""
    for c in range(centroids.shape[0]):
        mask = assignments == c
        if mask.any():
            centroids[c] = X[mask].mean(axis=0)


def _repair_empty(X: np.ndarray, centroids: np.ndarray, assignments: np.ndarray,
                  d2: np.ndarray) -> None:
    """Reseed each empty cluster with the cell farthest from its centroid.

    centroids, assignments and the squared distances d2 are updated in place.
    """
    rows = np.arange(X.shape[0])
    point_cost = d2[rows, assignments]
    for c in range(centroids.shape[0]):
        if not np.any(assignments == c):
            far = int(np.argmax(point_cost))
            centroids[c] = X[far]
            assignments[far] = c
            d2[:, c] = _sq_dists_to(X, centroids[c], np.empty_like(X))
            point_cost = d2[rows, assignments]


class ClusterRange:
    """Keeps kmeans's float64 arithmetic finite while kept cells are pooled.

    For n cells of squared norm at most r2, every squared distance kmeans
    forms, every sum of them and its inertia stay below 4 * n * r2, so that
    bound must be finite. add() checks it as each sample's cells join the
    pool and names the sample that breaks it.
    """

    def __init__(self):
        self.n = 0
        self.max_sq_norm = 0.0

    def add(self, sample: SampleSet) -> None:
        with np.errstate(over="ignore"):
            sq_norms = np.einsum("ij,ij->i", sample.cells, sample.cells)
        self.n += sample.n
        self.max_sq_norm = max(self.max_sq_norm, float(sq_norms.max()))
        if not 4.0 * self.n * self.max_sq_norm < np.inf:  # Python floats: no warning
            raise NumericalError(
                f"sample {sample.sample_id!r}: cells too large for k-means in float64 "
                f"(squared norm up to {self.max_sq_norm:.3g} over {self.n} pooled cells)"
            )


def _kmeanspp_init(X: np.ndarray, C: int, seed: int) -> np.ndarray:
    rng = philox_rng(seed)
    n = X.shape[0]
    centroids = np.empty((C, X.shape[1]))
    diff = np.empty_like(X)  # the one n x d scratch buffer of every step
    first = int(rng.integers(0, n))
    centroids[0] = X[first]
    closest = _sq_dists_to(X, centroids[0], diff)
    for c in range(1, C):
        total = closest.sum()
        cum = np.cumsum(closest / total)
        idx = int(np.searchsorted(cum, rng.random(), side="right"))
        idx = min(idx, n - 1)
        centroids[c] = X[idx]
        closest = np.minimum(closest, _sq_dists_to(X, centroids[c], diff))
    return centroids


def _sq_dists_to(X: np.ndarray, c: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """np.sum((X - c) ** 2, axis=1), its n x d difference formed in diff."""
    np.subtract(X, c, out=diff)
    np.square(diff, out=diff)
    return np.sum(diff, axis=1)


def _cluster_means(clusters: ClusterModel, scores: np.ndarray) -> np.ndarray:
    if scores.shape[0] != clusters.assignments.shape[0]:
        raise ValueError("pooled rows must match the cells the clustering was fit on")
    out = np.empty(clusters.C)
    for c in range(clusters.C):
        mask = clusters.assignments == c
        if not mask.any():
            raise ValueError(f"cluster {c} has no member cells")
        out[c] = scores[mask].mean()
    return out


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length sequences."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise ValueError("need at least two points")
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        raise ValueError("zero variance")
    r = float(da @ db) / sqrt(va * vb)
    return float(min(1.0, max(-1.0, r)))


def train_frequency_model(freqs: Sequence[np.ndarray], labels: Sequence[int],
                          reg_c: float = 1.0) -> tuple[np.ndarray, float]:
    """Fit the hinge-loss linear model on cluster-frequency features.

    solve_hinge stops on classifier.SOLVER_TOL and SOLVER_MAX_ITER.
    """
    X = np.stack([np.asarray(f, dtype=np.float64).ravel() for f in freqs])
    res = solve_hinge(X, np.asarray(labels, dtype=np.float64), reg_c=reg_c)
    return res.w, float(res.bias)


def frequency_score_predict(freqs: np.ndarray, cluster_scores: np.ndarray) -> float:
    """Weight fixed per-cluster scores by their prevalence in a sample.

    With centroid scores this is the centroid-weighted predictor; with
    average scores, the member-average-weighted predictor. The predicted
    label is the sign of the returned value.
    """
    freqs = np.asarray(freqs, dtype=np.float64).ravel()
    cluster_scores = np.asarray(cluster_scores, dtype=np.float64).ravel()
    if freqs.shape != cluster_scores.shape:
        raise ValueError(
            f"length mismatch: {freqs.shape[0]} frequencies vs "
            f"{cluster_scores.shape[0]} scores"
        )
    return float(freqs @ cluster_scores)


def region_scores(model: LinearModel, clusters: ClusterModel, scores: np.ndarray,
                  counts: Sequence[int]) -> RegionScores:
    """Bundle centroid/average scores with per-sample cluster frequencies.

    scores holds the cell_scores of the cells the clustering was fit on,
    which are the samples' cells in order, counts[i] of them from sample i. A
    sample's frequencies count its slice of clusters.assignments.
    """
    counts = np.asarray(counts)
    if (counts.ndim != 1 or not len(counts) or not np.issubdtype(counts.dtype, np.integer)
            or counts.min() < 1):
        raise ValueError("counts must be one positive cell count per sample")
    ends = np.cumsum(counts)
    if ends[-1] != len(scores):
        raise ValueError("scores must hold one per cell of the samples, in order")
    return RegionScores(
        centroid_scores=cell_scores(model, clusters.centroids),
        average_scores=_cluster_means(clusters, scores),
        frequencies=np.stack([np.bincount(ids, minlength=clusters.C) / len(ids) for ids in
                              np.split(clusters.assignments, ends[:-1])]),
    )


def score_gradient(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """Gradient of the cell score with respect to the cell, shape (d,).

    The bias contributes nothing; equals featurize_jacobian(x)^T beta,
    computed directly as scale * W (beta_sin*cos(z) - beta_cos*sin(z)).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    rmap = model.rff
    if x.shape[0] != rmap.d:
        raise ValueError(f"cell has d={x.shape[0]}, model expects d={rmap.d}")
    z = x @ rmap.W
    half = rmap.D // 2
    coeff = model.beta[:half] * np.cos(z) - model.beta[half:] * np.sin(z)
    return rmap.scale * (rmap.W @ coeff)


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of values, tied values sharing their mean rank, and the
    size of each tie group.

    Equal values form a group (0.0 and -0.0 too), and so do all NaNs, ranked
    after every number.
    """
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group], counts


def use_exact_rank_sum(n1: int, n2: int) -> bool:
    """Exact enumeration applies for min(n) <= 20 and combined n <= 25."""
    return min(n1, n2) <= 20 and n1 + n2 <= 25


def _rank_sum_distribution(ranks2: np.ndarray, n1: int):
    """Count n1-subsets of the doubled ranks by their sum (exact null DP)."""
    total_sum = int(ranks2.sum())
    # ways[k][s] = number of k-subsets of the doubled ranks summing to s
    ways = np.zeros((n1 + 1, total_sum + 1), dtype=np.int64)
    ways[0, 0] = 1
    for r in ranks2:
        r = int(r)
        for k in range(n1, 0, -1):  # descending so row k-1 is pre-item state
            ways[k, r:] += ways[k - 1, :total_sum + 1 - r]
    return ways[n1], np.arange(total_sum + 1)


def rank_sum_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided rank-sum test on two samples; ties get midranks.

    Small inputs (min group <= 20 and combined <= 25) are handled by exact
    enumeration of the permutation distribution; larger ones use the normal
    approximation with tie correction and continuity correction. The p-value
    is clamped to (0, 1].
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    n1, n2 = a.shape[0], b.shape[0]
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    values = np.concatenate([a, b])
    ranks, tie_counts = _midranks(values)
    w = float(ranks[:n1].sum())
    n = n1 + n2
    mean_w = n1 * (n + 1) / 2.0
    if use_exact_rank_sum(n1, n2):
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)  # doubled midranks are integers
        counts, sums = _rank_sum_distribution(ranks2, n1)
        e2 = n1 * (n + 1)  # doubled expectation of the group-1 rank sum
        obs_dev = abs(int(np.rint(2.0 * w)) - e2)
        extreme = counts[np.abs(sums - e2) >= obs_dev].sum()
        p = float(extreme) / float(comb(n, n1))
    else:
        tie_term = float(np.sum(tie_counts ** 3 - tie_counts)) / (n * (n - 1))
        var_w = n1 * n2 / 12.0 * ((n + 1) - tie_term)
        if var_w <= 0.0:
            return 1.0
        z = max(0.0, abs(w - mean_w) - 0.5) / sqrt(var_w)
        p = erfc(z / sqrt(2.0))
    return float(min(1.0, max(p, np.finfo(float).tiny)))
