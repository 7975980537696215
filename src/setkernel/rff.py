"""Random Fourier feature map approximating the RBF kernel.

The map is phi(x) = sqrt(2/D) * [sin(W^T x) || cos(W^T x)] with the columns
of W drawn i.i.d. from N(0, 1/gamma), so that phi(x)^T phi(x') is an unbiased
estimate of exp(-||x - x'||^2 / (2 gamma)). Frequencies are sampled once per
model and frozen; the sampling algorithm is fixed (Box-Muller over Philox
uniforms) so a serialized map can be regenerated from (d, D, gamma, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MASK64
from .errors import NumericalError, raise_on_overflow

GENERATOR_NAME = "philox4x64-boxmuller"
TWO_PI = 2.0 * np.pi
TRIG_CHUNK = 1 << 15  # elements of X @ W per _phase_blocks block (256 KB in float64)


@dataclass(frozen=True)
class RffMap:
    """Frozen random-feature map: frequencies W (d x D/2), bandwidth gamma, and
    the seed W was drawn from. d, D and scale = sqrt(2/D) follow from W."""

    W: np.ndarray
    gamma: float
    seed: int

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if W.ndim != 2 or W.size == 0:
            raise ValueError(f"W must be a non-empty d x D/2 matrix, got shape {W.shape}")
        if not np.all(np.isfinite(W)):
            raise ValueError("W contains non-finite entries")
        W = W.copy()
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @property
    def D(self) -> int:
        return 2 * self.W.shape[1]

    @property
    def scale(self) -> float:
        return float(np.sqrt(2.0 / self.D))


def philox_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator keyed directly by the (masked) seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & MASK64))


def gaussian_draws(count: int, seed: int) -> np.ndarray:
    """count standard normals via Box-Muller over Philox uniform doubles."""
    rng = philox_rng(seed)
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # (0, 1]; keeps log finite
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:count]


def sample_frequencies(d: int, D: int, gamma: float, seed: int) -> RffMap:
    """Draw the d x D/2 frequency matrix with entries ~ N(0, 1/gamma)."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if D < 2 or D % 2 != 0:
        raise ValueError(f"D must be even and >= 2, got {D}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    W = gaussian_draws(d * (D // 2), seed).reshape(d, D // 2) / np.sqrt(gamma)
    return RffMap(W=W, gamma=float(gamma), seed=int(seed) & MASK64)


def _as_cells(rmap: RffMap, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != rmap.d:
        raise ValueError(f"input has d={X.shape[1]}, map expects d={rmap.d}")
    return X


def _phase_blocks(rmap: RffMap, X: np.ndarray):
    """Yield (r, Z) with Z = X[r:r + len(Z)] @ W, block after block of rows.

    BLAS picks its kernel, and with it how each row's sum is rounded, from
    the shape of the product: a lone row goes through GEMV, a few rows may
    take a small-matrix kernel. So every product here takes exactly
    TRIG_CHUNK // (D/2) rows, the last block padded, and a row's phases are
    bit-identical whichever rows it comes with. Z is one reused buffer,
    overwritten by the next block. A block that is not finite raises
    NumericalError instead of warning.
    """
    rows = max(1, TRIG_CHUNK // rmap.W.shape[1])
    block = np.zeros((rows, rmap.d))
    Z = np.empty((rows, rmap.W.shape[1]))
    for r in range(0, len(X), rows):
        c = min(rows, len(X) - r)
        block[:c] = X[r:r + c]
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(block, rmap.W, out=Z)
        if not np.isfinite(Z[:c]).all():
            raise NumericalError("X @ W overflows float64: a cell's values are too large "
                                 "for the feature map")
        yield r, Z[:c]


def featurize_batch(rmap: RffMap, X: np.ndarray) -> np.ndarray:
    """Feature map for an (n, d) matrix of cells; returns (n, D).

    Each row is bit-identical to that row featurized alone or in any other
    block of rows (see _phase_blocks). Apart from the result, no temporary
    grows with n.
    """
    X = _as_cells(rmap, X)
    out = np.empty((X.shape[0], rmap.D))
    half = rmap.D // 2
    for r, Z in _phase_blocks(rmap, X):
        np.sin(Z, out=out[r:r + len(Z), :half])
        np.cos(Z, out=out[r:r + len(Z), half:])
    out *= rmap.scale
    return out


def featurize_f32trig(rmap: RffMap, X: np.ndarray) -> np.ndarray:
    """The (n, D) float32 sin/cos values t32 of the cells, unscaled.

    sin/cos run in float32, where numpy uses SIMD, on X @ W computed and
    reduced to [-pi, pi] in float64, so the float32 argument carries only
    its own rounding at any cell magnitude. rmap.scale * t32, scaled in
    float64, is the feature map: its entries differ from featurize_batch by
    at most about 1.6e-7 * scale (5e-9 at D=2000). Rows go through the trig
    one _phase_blocks block at a time, so apart from the result no
    temporary grows with n. Like featurize_batch, it gives a row the same
    bits alone, in any subset, order or block of rows. A phase too large
    for its reduced value to be finite in float32 raises NumericalError.
    """
    X = _as_cells(rmap, X)
    out = np.empty((X.shape[0], rmap.D), np.float32)
    half = rmap.D // 2
    for r, Z in _phase_blocks(rmap, X):
        with raise_on_overflow("X @ W is too large to reduce in float32: a cell's values "
                               "are too large for the feature map"):
            turns = Z * (1.0 / TWO_PI)
            np.rint(turns, out=turns)
            turns *= TWO_PI
            Z -= turns
            z32 = Z.astype(np.float32)
        np.sin(z32, out=out[r:r + len(Z), :half])
        np.cos(z32, out=out[r:r + len(Z), half:])
    return out


def featurize_jacobian(rmap: RffMap, x: np.ndarray) -> np.ndarray:
    """d(phi)/dx at x, shape (D, d).

    Row j (j < D/2) is scale * cos(w_j^T x) * w_j^T; row D/2 + j is
    -scale * sin(w_j^T x) * w_j^T.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != rmap.d:
        raise ValueError(f"input has d={x.shape[0]}, map expects d={rmap.d}")
    z = x @ rmap.W
    Wt = rmap.W.T  # (D/2, d), rows are frequencies
    top = rmap.scale * np.cos(z)[:, None] * Wt
    bottom = -rmap.scale * np.sin(z)[:, None] * Wt
    return np.concatenate([top, bottom], axis=0)


def kernel_exact(x: np.ndarray, x2: np.ndarray, gamma: float) -> float:
    """RBF kernel exp(-||x - x'||^2 / (2 gamma))."""
    x = np.asarray(x, dtype=np.float64).ravel()
    x2 = np.asarray(x2, dtype=np.float64).ravel()
    if x.shape != x2.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {x2.shape}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    delta = x - x2
    return float(np.exp(-float(delta @ delta) / (2.0 * gamma)))
