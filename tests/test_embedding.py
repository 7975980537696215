import numpy as np

from setkernel import (
    PipelineConfig,
    featurize_batch,
    mean_embedding,
    sample_frequencies,
)
from setkernel.classifier import Pipeline

from conftest import make_sample


def mmd(rmap, a, b):
    """Primal-space MMD estimate: the distance between the two mean embeddings."""
    return float(np.linalg.norm(mean_embedding(rmap, a) - mean_embedding(rmap, b)))


class TestMeanEmbedding:
    def test_singleton_equals_featurize(self, small_map):
        x = np.array([0.7, -0.3])
        e = mean_embedding(small_map, make_sample([x]))
        np.testing.assert_array_equal(e, featurize_batch(small_map, x)[0])

    def test_is_the_row_the_pipeline_embeds(self, small_map, rng):
        s = make_sample(rng.normal(size=(300, 2)))
        row = mean_embedding(small_map, s)
        cfg = PipelineConfig(gamma=small_map.gamma, D=small_map.D, m=None)
        assert isinstance(row, np.ndarray) and row.shape == (small_map.D,)
        assert row.dtype == np.float64
        assert row.tobytes() == Pipeline(cfg, small_map).embed([s])[0].tobytes()

    def test_repeated_cell_equals_singleton(self, small_map):
        x = np.array([1.1, 0.2])
        single = mean_embedding(small_map, make_sample([x]))
        repeated = mean_embedding(small_map, make_sample([x] * 5))
        np.testing.assert_allclose(repeated, single, atol=1e-15)

    def test_duplicated_set_unchanged(self, small_map, rng):
        cells = rng.normal(size=(30, 2))
        orig = mean_embedding(small_map, make_sample(cells))
        doubled = mean_embedding(small_map, make_sample(np.vstack([cells, cells])))
        np.testing.assert_allclose(doubled, orig, atol=1e-12)

    def test_permutation_invariance(self, small_map, rng):
        cells = rng.normal(size=(5000, 2))
        base = mean_embedding(small_map, make_sample(cells))
        for _ in range(5):
            shuffled = cells[rng.permutation(5000)]
            mu = mean_embedding(small_map, make_sample(shuffled))
            assert np.abs(mu - base).max() <= 1e-9

    def test_linearity_under_concatenation(self, small_map, rng):
        a = rng.normal(size=(13, 2))
        b = rng.normal(size=(29, 2))
        mu_a = mean_embedding(small_map, make_sample(a))
        mu_b = mean_embedding(small_map, make_sample(b))
        mu_ab = mean_embedding(small_map, make_sample(np.vstack([a, b])))
        expected = (13 * mu_a + 29 * mu_b) / 42
        np.testing.assert_allclose(mu_ab, expected, atol=1e-12)

    def test_norm_bounded_by_one(self, small_map, rng):
        for _ in range(10):
            cells = rng.normal(scale=rng.uniform(0.1, 5), size=(rng.integers(1, 200), 2))
            e = mean_embedding(small_map, make_sample(cells))
            assert np.linalg.norm(e) <= 1 + 1e-9


def naive_row(rmap, sample):
    """The row a features=naive Pipeline computes for sample, all cells kept."""
    cfg = PipelineConfig(gamma=rmap.gamma, D=rmap.D, m=None, features="naive")
    return Pipeline(cfg, rmap).row(sample)


class TestNaiveMean:
    def test_hand_case(self, small_map):
        np.testing.assert_array_equal(
            naive_row(small_map, make_sample([[0.0, 0.0], [2.0, 4.0]])), [1.0, 2.0]
        )

    def test_singleton(self, small_map):
        np.testing.assert_array_equal(naive_row(small_map, make_sample([[3.0, -1.0]])),
                                      [3.0, -1.0])

    def test_standardized_pool_has_zero_mean(self, rng):
        from setkernel import apply_standardizer, fit_standardizer

        sets = [make_sample(rng.normal(loc=2, size=(40, 3)), f"s{i}") for i in range(4)]
        std = fit_standardizer(sets)
        out = [apply_standardizer(std, s) for s in sets]
        pooled_mean = np.vstack([s.cells for s in out]).mean(axis=0)
        assert np.abs(pooled_mean).max() <= 1e-9


class TestMmd:
    def test_identical_sets(self, small_map, rng):
        s = make_sample(rng.normal(size=(50, 2)))
        assert mmd(small_map, s, s) <= 1e-12

    def test_same_distribution_bound(self):
        # Monte-Carlo oracle over 20 seeds: two draws from the same normal
        vals = []
        for seed in range(20):
            m = sample_frequencies(2, 2000, 1.0, seed)
            gen = np.random.default_rng(seed)
            a = make_sample(gen.normal(size=(500, 2)), "a")
            b = make_sample(gen.normal(size=(500, 2)), "b")
            vals.append(mmd(m, a, b))
        assert max(vals) <= 0.2

    def test_shifted_distribution_separates(self):
        same, shifted = [], []
        for seed in range(20):
            m = sample_frequencies(2, 2000, 1.0, seed)
            gen = np.random.default_rng(seed)
            a = make_sample(gen.normal(size=(500, 2)), "a")
            b = make_sample(gen.normal(size=(500, 2)), "b")
            c = make_sample(gen.normal(loc=(3.0, 3.0), size=(500, 2)), "c")
            same.append(mmd(m, a, b))
            shifted.append(mmd(m, a, c))
        assert np.mean(shifted) >= 5 * np.mean(same)

    def test_triangle_inequality(self, small_map, rng):
        for _ in range(10):
            a = make_sample(rng.normal(size=(40, 2)), "a")
            b = make_sample(rng.normal(loc=1, size=(40, 2)), "b")
            c = make_sample(rng.normal(scale=2, size=(40, 2)), "c")
            assert mmd(small_map, a, c) <= mmd(small_map, a, b) + mmd(small_map, b, c) + 1e-12
