import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkernel import (
    RffMap,
    featurize_batch,
    featurize_jacobian,
    kernel_exact,
    sample_frequencies,
)
from setkernel.errors import NumericalError
from setkernel.rff import featurize_f32trig


class TestSampleFrequencies:
    def test_determinism(self):
        a = sample_frequencies(3, 10, 1.0, 7)
        b = sample_frequencies(3, 10, 1.0, 7)
        np.testing.assert_array_equal(a.W, b.W)

    def test_different_seeds_differ(self):
        a = sample_frequencies(3, 10, 1.0, 7)
        b = sample_frequencies(3, 10, 1.0, 8)
        assert not np.array_equal(a.W, b.W)

    def test_entry_variance_matches_gamma(self):
        # law-of-large-numbers oracle: Var = 1/gamma over 1e5 entries
        m = sample_frequencies(100, 2000, 4.0, 42)
        assert m.W.size == 100_000
        assert 0.24 <= m.W.var() <= 0.26

    def test_huge_gamma_shrinks_frequencies(self):
        m = sample_frequencies(100, 2000, 1e12, 17)
        assert m.W.var() <= 2e-12

    def test_scale_field(self):
        m = sample_frequencies(2, 50, 1.0, 0)
        assert m.scale == pytest.approx(math.sqrt(2.0 / 50))

    @pytest.mark.parametrize("d,D,gamma,seed", [(1, 2, 1.0, 0), (2, 50, 0.5, 7),
                                                (30, 2000, 3.0, 2 ** 64 - 1),
                                                (5, 4096, 1e-3, 123)])
    def test_D_and_scale_follow_from_W(self, d, D, gamma, seed):
        m = sample_frequencies(d, D, gamma, seed)
        assert m.W.shape == (d, D // 2) and m.d == d and m.D == D
        assert isinstance(m.D, int) and isinstance(m.scale, float)
        assert m.scale.hex() == float(np.sqrt(2.0 / D)).hex()
        # W, gamma and seed are the whole map: D and scale cannot be set apart from W
        with pytest.raises(TypeError):
            RffMap(W=m.W, gamma=gamma, seed=seed, scale=5.0)
        with pytest.raises(TypeError):
            RffMap(W=m.W, gamma=gamma, seed=seed, D=D)

    @pytest.mark.parametrize("W", [np.empty((0, 4)), np.empty((3, 0)), np.empty(0),
                                   np.ones(4)])
    def test_empty_or_flat_W_is_refused(self, W):
        with pytest.raises(ValueError, match="W must be a non-empty d x D/2 matrix"):
            RffMap(W=W, gamma=1.0, seed=0)

    @pytest.mark.parametrize("d,D,gamma", [(2, 9, 1.0), (2, 0, 1.0), (2, 10, 0.0),
                                           (2, 10, -1.0), (0, 10, 1.0), (2, 10, math.inf),
                                           (2, 10, math.nan)])
    def test_invalid_args(self, d, D, gamma):
        with pytest.raises(ValueError):
            sample_frequencies(d, D, gamma, 0)


class TestFeaturize:
    @pytest.mark.parametrize("featurizer", [featurize_batch, featurize_f32trig])
    @pytest.mark.parametrize("big", [1e308, -1e308])
    def test_overflowing_cell_raises_without_warning(self, small_map, featurizer, big):
        X = np.zeros((40, 2))
        X[37] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="X @ W overflows float64"):
                featurizer(small_map, X)
            featurizer(small_map, X[:37])  # the cells before it are fine

    def test_zero_input_structure(self, small_map):
        phi = featurize_batch(small_map, np.zeros(2))[0]
        half = small_map.D // 2
        np.testing.assert_array_equal(phi[:half], 0.0)
        np.testing.assert_allclose(phi[half:], small_map.scale, rtol=0, atol=0)

    def test_unit_norm(self, small_map, rng):
        for _ in range(20):
            x = rng.normal(scale=3, size=2)
            phi = featurize_batch(small_map, x)[0]
            assert abs(phi @ phi - 1.0) <= 1e-12

    def test_batch_matches_single(self, small_map, rng):
        # a lone cell takes the same GEMM shape as a batch, so agreement is bitwise
        X = rng.normal(size=(7, 2))
        batch = featurize_batch(small_map, X)
        for i in range(7):
            np.testing.assert_array_equal(batch[i], featurize_batch(small_map, X[i])[0])

    def test_dimension_mismatch(self, small_map):
        with pytest.raises(ValueError, match="map expects"):
            featurize_batch(small_map, np.zeros(3))

    def test_batch_peak_is_its_output(self):
        # X @ W goes through one reused block, so no n x D/2 phase matrix
        # is held next to the n x D result
        n, d, D = 4096, 30, 2000
        X = np.random.default_rng(3).normal(size=(n, d))
        rmap = sample_frequencies(d, D, 30.0, 4)
        tracemalloc.start()
        try:
            featurize_batch(rmap, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * n * D * 8

    def test_kernel_approximation(self, rng):
        m = sample_frequencies(2, 2000, 1.0, 99)
        errs = []
        for _ in range(1000):
            x = rng.normal(size=2)
            delta = rng.normal(size=2)
            delta *= rng.uniform(0, 3) / max(np.linalg.norm(delta), 1e-12)
            x2 = x + delta
            approx = featurize_batch(m, x)[0] @ featurize_batch(m, x2)[0]
            errs.append(abs(approx - kernel_exact(x, x2, 1.0)))
        assert max(errs) <= 0.05

    def test_unbiased_over_seeds(self, rng):
        # averaging the estimate over independent frequency draws approaches
        # the closed-form kernel
        x = np.array([0.3, -1.2])
        x2 = np.array([-0.5, 0.4])
        estimates = [
            float(featurize_batch(m, x)[0] @ featurize_batch(m, x2)[0])
            for m in (sample_frequencies(2, 2000, 1.0, seed) for seed in range(50))
        ]
        assert abs(np.mean(estimates) - kernel_exact(x, x2, 1.0)) <= 0.02

    def test_shift_invariance(self, rng):
        m = sample_frequencies(3, 500, 2.0, 5)
        for _ in range(10):
            x = rng.normal(size=3)
            x2 = rng.normal(size=3)
            t = rng.normal(size=3)
            a = featurize_batch(m, x)[0] @ featurize_batch(m, x2)[0]
            b = featurize_batch(m, x + t)[0] @ featurize_batch(m, x2 + t)[0]
            assert abs(a - b) <= 1e-12


class TestRowStability:
    """A row's features do not depend on the rows featurized with it."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2, 3, 30, 31]),
           D=st.sampled_from([2, 4, 250, 2000]), n=st.integers(1, 600),
           log_scale=st.floats(-3.0, 5.0))
    def test_rows_are_bit_identical_in_any_block(self, seed, d, D, n, log_scale):
        # cells up to raw intensities: a lone row, a subset in any order and a
        # split into blocks give every row the bits of one call on all rows
        gen = np.random.default_rng(seed)
        rmap = sample_frequencies(d, D, 1.0, seed % 1000)
        X = gen.normal(size=(n, d)) * 10.0 ** log_scale
        subset = gen.permutation(n)[:gen.integers(1, n + 1)]
        cuts = np.sort(gen.integers(0, n + 1, size=gen.integers(0, 6)))
        for featurizer in (featurize_batch, featurize_f32trig):
            full = featurizer(rmap, X)
            for i in gen.choice(n, size=min(n, 5), replace=False):
                np.testing.assert_array_equal(featurizer(rmap, X[i]), full[i:i + 1])
            np.testing.assert_array_equal(featurizer(rmap, X[subset]), full[subset])
            blocks = [featurizer(rmap, X[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
            np.testing.assert_array_equal(np.vstack(blocks), full)


class TestKernelExact:
    def test_same_point(self):
        assert kernel_exact(np.ones(4), np.ones(4), 3.0) == 1.0

    def test_analytic_e_inverse(self):
        x = np.zeros(2)
        x2 = np.array([math.sqrt(2.0), 0.0])  # squared distance 2 = 2*gamma
        assert kernel_exact(x, x2, 1.0) == pytest.approx(0.3678794412, abs=1e-10)

    def test_wide_bandwidth_e_inverse(self):
        # gamma 8 with squared distance 16 also lands on exp(-1)
        x2 = np.array([4.0, 0.0])
        assert kernel_exact(np.zeros(2), x2, 8.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_exact(np.zeros(2), np.zeros(3), 1.0)


class TestJacobian:
    def test_zero_input_structure(self, small_map):
        J = featurize_jacobian(small_map, np.zeros(2))
        half = small_map.D // 2
        np.testing.assert_allclose(J[:half], small_map.scale * small_map.W.T)
        np.testing.assert_array_equal(J[half:], 0.0)

    def test_finite_differences(self, rng):
        m = sample_frequencies(3, 40, 1.0, 11)
        h = 1e-6
        for _ in range(5):
            x = rng.normal(size=3)
            J = featurize_jacobian(m, x)
            fd = np.empty_like(J)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (featurize_batch(m, x + e)[0]
                            - featurize_batch(m, x - e)[0]) / (2 * h)
            rel = np.abs(J - fd).max() / max(np.abs(J).max(), 1e-12)
            assert rel <= 1e-5

    def test_depends_only_on_projections(self):
        # with D/2 < d the frequency matrix has a null space; moving along it
        # leaves all projections, hence the jacobian, unchanged
        m = sample_frequencies(3, 4, 1.0, 3)
        _, _, vt = np.linalg.svd(m.W.T)
        null = vt[-1]
        assert np.abs(m.W.T @ null).max() < 1e-12
        x = np.array([0.4, -1.0, 2.0])
        J1 = featurize_jacobian(m, x)
        J2 = featurize_jacobian(m, x + 3.7 * null)
        np.testing.assert_allclose(J1, J2, atol=1e-9)

    def test_dimension_mismatch(self, small_map):
        with pytest.raises(ValueError):
            featurize_jacobian(small_map, np.zeros(5))
