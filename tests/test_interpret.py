import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkernel import (
    LinearModel,
    cell_scores,
    decision,
    featurize_jacobian,
    frequency_score_predict,
    kmeans,
    mean_embedding,
    pearson,
    rank_sum_test,
    sample_frequencies,
    score_gradient,
    train_frequency_model,
)
from setkernel.interpret import (
    SCORE_ROWS,
    ClusterModel,
    _midranks,
    region_scores,
    use_exact_rank_sum,
)
from setkernel import workers
from setkernel.rff import featurize_batch

from conftest import brute_force_rank_sum_p, loop_midranks, make_sample


def random_model(rmap, rng, bias=0.3):
    return LinearModel(beta=rng.normal(size=rmap.D), bias=bias, rff=rmap, reg_c=1.0)


def nearest(centroids, X):
    """Nearest-centroid id of each row of X, by brute force."""
    return np.argmin(((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1)


class TestCellScore:
    def test_zero_beta_gives_bias(self, small_map, rng):
        model = LinearModel(beta=np.zeros(small_map.D), bias=0.7, rff=small_map,
                            reg_c=1.0)
        X = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(cell_scores(model, X), np.full(10, 0.7))

    def test_mean_score_equals_decision(self, small_map, rng):
        model = random_model(small_map, rng)
        s = make_sample(rng.normal(size=(40, 2)))
        dec = decision(model, mean_embedding(small_map, s))
        assert abs(cell_scores(model, s.cells).mean() - dec) <= 1e-9 * (1 + abs(dec))

    def test_origin_uses_cosine_block_only(self, small_map, rng):
        model = random_model(small_map, rng, bias=0.1)
        half = small_map.D // 2
        expected = 0.1 + small_map.scale * model.beta[half:].sum()
        assert cell_scores(model, np.zeros(2))[0] == pytest.approx(expected, abs=1e-12)


class TestBlockedCellScores:
    """cell_scores featurizes SCORE_ROWS cells at a time instead of all at once."""

    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(5)
        return random_model(sample_frequencies(30, 2000, 30.0, 11), rng)

    @pytest.mark.parametrize("n", [SCORE_ROWS, 4000])
    def test_equal_to_one_shot_bit_for_bit(self, model, rng, n):
        X = rng.normal(scale=3.0, size=(n, 30))
        one_shot = featurize_batch(model.rff, X) @ model.beta + model.bias
        assert cell_scores(model, X).tobytes() == one_shot.tobytes()

    @pytest.mark.parametrize("n", [1, SCORE_ROWS - 1, SCORE_ROWS + 1, 2 * SCORE_ROWS + 1,
                                   1001, 3999])
    def test_close_to_one_shot_at_any_n(self, model, rng, n):
        # the one-shot product rounds its last n % 4 rows apart, and a threaded
        # GEMV may split it off a multiple of four rows
        X = rng.normal(scale=3.0, size=(n, 30))
        one_shot = featurize_batch(model.rff, X) @ model.beta + model.bias
        np.testing.assert_allclose(cell_scores(model, X), one_shot, rtol=1e-13, atol=1e-13)

    def test_a_cells_score_has_the_same_bits_in_any_block(self, model, rng):
        X = rng.normal(scale=3.0, size=(1000, 30))
        whole = cell_scores(model, X)
        for cuts in ([1, 2, 129, 130, 997], sorted(rng.choice(999, 5, replace=False) + 1)):
            parts = [cell_scores(model, part) for part in np.split(X, cuts)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), cuts
        lone = [cell_scores(model, x)[0] for x in X[:40]]
        assert np.array(lone).tobytes() == whole[:40].tobytes()
        order = rng.permutation(1000)
        assert cell_scores(model, X[order]).tobytes() == whole[order].tobytes()

    @pytest.mark.parametrize("n", [250, 254])
    def test_same_bits_at_one_and_two_blas_threads(self, model, rng, n):
        # the one-shot product's last rows differ between 1 and 2 threads at these n
        threads = workers.blas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS has no thread-count setter here")
        set_threads, get_threads = threads
        X = rng.normal(scale=3.0, size=(n, 30))
        before = get_threads()
        try:
            scores = []
            for count in (1, 2):
                set_threads(count)
                scores.append(cell_scores(model, X).tobytes())
        finally:
            set_threads(before)
        assert scores[0] == scores[1]

    def test_peak_memory_does_not_grow_with_n(self, model, rng):
        X = rng.normal(size=(8000, 30))
        tracemalloc.start()
        try:
            cell_scores(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # one-shot: 8000 x 2000 phi plus 8000 x 1000 X @ W, ~190 MB


class TestKmeans:
    def test_two_blobs_recovered(self, rng):
        # blob-generator oracle: ground-truth partition is known
        a = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(60, 2))
        b = rng.normal(loc=(6.0, 6.0), scale=0.3, size=(40, 2))
        X = np.vstack([a, b])
        cm = kmeans(X, 2, seed=1)
        assert cm.C == len(cm.centroids) == 2
        ids = cm.assignments
        # one cluster must be exactly rows 0..59, the other 60..99
        first = ids[0]
        assert np.all(ids[:60] == first)
        assert np.all(ids[60:] == 1 - first)
        means = {first: a.mean(axis=0), 1 - first: b.mean(axis=0)}
        for c in (0, 1):
            assert np.linalg.norm(cm.centroids[c] - means[c]) <= 0.1

    def test_inertia_zero_when_c_equals_distinct_points(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cm = kmeans(X, 3, seed=0)
        assert cm.inertia == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self, rng):
        X = rng.normal(size=(100, 3))
        a = kmeans(X, 4, seed=9)
        b = kmeans(X, 4, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    def test_too_few_distinct_points(self):
        X = np.array([[1.0, 1.0]] * 10 + [[2.0, 2.0]] * 10)
        with pytest.raises(ValueError, match="distinct"):
            kmeans(X, 3, seed=0)

    def test_inertia_history_non_increasing(self, rng):
        X = rng.normal(size=(300, 2))
        cm = kmeans(X, 6, seed=2)
        hist = np.asarray(cm.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9)

    def test_assignments_are_nearest(self, rng):
        X = rng.normal(size=(120, 2))
        cm = kmeans(X, 5, seed=4)
        np.testing.assert_array_equal(cm.assignments, nearest(cm.centroids, X))

    def test_empty_cluster_repair(self):
        # an init centroid far from every point empties after one update
        X = np.vstack([np.zeros((10, 2)), np.ones((10, 2)) * 4,
                       np.array([[2.0, 2.0]])])
        init = np.array([[0.0, 0.0], [4.0, 4.0], [100.0, 100.0]])
        cm = kmeans(X, 3, seed=0, init=init)
        assert np.bincount(cm.assignments, minlength=3).min() >= 1


class TestRegionScores:
    def test_identical_cells_make_scores_agree(self, small_map, rng):
        model = random_model(small_map, rng)
        x = np.array([0.5, -0.2])
        X = np.tile(x, (20, 1)) + 0.0
        X[10:] += 5.0  # second cluster, also constant
        cm = kmeans(X, 2, seed=0)
        region = region_scores(model, cm, cell_scores(model, X), [make_sample(X)])
        cs = region.centroid_scores
        np.testing.assert_allclose(cs, region.average_scores, atol=1e-12)
        ref = cell_scores(model, X[0])[0]
        c0 = cm.assignments[0]
        assert cs[c0] == pytest.approx(ref, abs=1e-12)

    def test_zero_beta_scores_equal_bias(self, small_map, rng):
        model = LinearModel(beta=np.zeros(small_map.D), bias=-1.2, rff=small_map,
                            reg_c=1.0)
        X = rng.normal(size=(50, 2))
        cm = kmeans(X, 3, seed=1)
        region = region_scores(model, cm, cell_scores(model, X), [make_sample(X)])
        np.testing.assert_allclose(region.centroid_scores, -1.2, atol=1e-15)
        np.testing.assert_allclose(region.average_scores, -1.2, atol=1e-15)

    def test_general_case_scores_differ_but_finite(self, small_map, rng):
        model = random_model(small_map, rng)
        X = rng.normal(size=(200, 2)) * 2
        cm = kmeans(X, 4, seed=7)
        region = region_scores(model, cm, cell_scores(model, X), [make_sample(X)])
        assert np.all(np.isfinite(region.centroid_scores))
        assert np.all(np.isfinite(region.average_scores))

    def test_frequencies_count_each_samples_assignments(self, small_map, rng):
        # assignments that are not the nearest-centroid ids, as k-means's last
        # empty-cluster repair can leave them: frequencies follow the assignments
        a = make_sample(rng.normal(size=(5, 2)), "a")
        b = make_sample(rng.normal(size=(7, 2)), "b")
        pooled = np.vstack([a.cells, b.cells])
        cm = ClusterModel(centroids=[[0.0, 0.0], [50.0, 50.0], [-50.0, 50.0]],
                          assignments=[0, 1, 2, 1, 1, 2, 2, 0, 1, 2, 2, 2], inertia=0.0)
        assert cm.C == 3
        assert not np.array_equal(nearest(cm.centroids, pooled), cm.assignments)
        model = random_model(small_map, rng)
        region = region_scores(model, cm, cell_scores(model, pooled), [a, b])
        expected = [np.bincount(cm.assignments[:5], minlength=3) / 5,
                    np.bincount(cm.assignments[5:], minlength=3) / 7]
        np.testing.assert_array_equal(region.frequencies, expected)  # rows in sample order

    @pytest.mark.parametrize("centroids", [[[0.0, 0.0]], [0.0, 1.0], np.empty((0, 2))])
    def test_fewer_than_two_centroids_are_refused(self, centroids):
        with pytest.raises(ValueError, match="C >= 2"):
            ClusterModel(centroids=centroids, assignments=[0], inertia=0.0)

    @pytest.mark.parametrize("assignments", [[0, 5, 1], [-1, 0], [[0, 1], [1, 0]]])
    def test_assignments_naming_no_centroid_are_refused(self, assignments):
        with pytest.raises(ValueError, match="centroid ids"):
            ClusterModel(centroids=[[0.0, 0.0], [1.0, 1.0]], assignments=assignments,
                         inertia=0.0)


class TestPearson:
    def test_affine_increasing(self, rng):
        a = rng.normal(size=20)
        assert pearson(a, 2 * a + 3) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self, rng):
        a = rng.normal(size=20)
        assert pearson(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestClusterFrequencies:
    """region_scores' frequencies: each sample's share of the pooled cells per cluster."""

    def _regions(self, small_map, rng, samples):
        pooled = np.vstack([s.cells for s in samples])
        cm = kmeans(pooled, 3, seed=0)
        model = random_model(small_map, rng)
        return cm, pooled, region_scores(model, cm, cell_scores(model, pooled), samples)

    def test_union_is_weighted_average(self, small_map, rng):
        a = make_sample(rng.normal(scale=4, size=(30, 2)), "a")
        b = make_sample(rng.normal(scale=4, size=(50, 2)), "b")
        cm, pooled, region = self._regions(small_map, rng, [a, b])
        ab = make_sample(pooled, "ab")
        model = random_model(small_map, rng)
        union = region_scores(model, cm, cell_scores(model, pooled), [ab])
        fa, fb = region.frequencies
        combined = (30 * fa + 50 * fb) / 80
        np.testing.assert_allclose(union.frequencies[0], combined, atol=1e-12)

    def test_simplex(self, small_map, rng):
        samples = [make_sample(rng.normal(scale=6, size=(n, 2)), f"s{n}") for n in (70, 9)]
        _, _, region = self._regions(small_map, rng, samples)
        assert region.frequencies.shape == (2, 3)
        assert np.all(region.frequencies >= 0)
        np.testing.assert_allclose(region.frequencies.sum(axis=1), 1.0, atol=1e-9)


class TestFrequencyPredictors:
    def test_separable_frequencies_learned_perfectly(self):
        freqs = [np.array([0.9, 0.1]), np.array([0.8, 0.2]),
                 np.array([0.1, 0.9]), np.array([0.2, 0.8])]
        labels = [1, 1, -1, -1]
        alpha, a = train_frequency_model(freqs, labels, reg_c=100.0)
        preds = [1 if f @ alpha + a >= 0 else -1 for f in freqs]
        assert preds == labels

    def test_no_signal_predicts_majority(self):
        freqs = [np.array([0.5, 0.5])] * 6
        labels = [1, 1, 1, 1, -1, -1]
        alpha, a = train_frequency_model(freqs, labels, reg_c=1.0)
        preds = [1 if f @ alpha + a >= 0 else -1 for f in freqs]
        acc = np.mean(np.asarray(preds) == labels)
        assert acc == pytest.approx(4 / 6)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            train_frequency_model([np.ones(2), np.ones(2)], [1, 1])

    def test_one_hot_frequency_returns_that_score(self):
        scores = np.array([1.5, -2.0, 0.25])
        assert frequency_score_predict(np.array([0.0, 1.0, 0.0]), scores) == -2.0

    def test_constant_scores_collapse(self, rng):
        f = rng.dirichlet(np.ones(5))
        assert frequency_score_predict(f, np.full(5, 0.77)) == pytest.approx(0.77)

    def test_matches_decision_when_cells_sit_on_centroids(self, small_map, rng):
        # construct a sample whose cells all coincide with centroids; then the
        # frequency-weighted centroid scores equal the mean cell score exactly
        model = random_model(small_map, rng)
        centroids = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        counts = [5, 3, 2]
        cells = np.vstack([np.tile(c, (k, 1)) for c, k in zip(centroids, counts)])
        cm = kmeans(cells, 3, seed=0, init=centroids)
        s = make_sample(cells)
        region = region_scores(model, cm, cell_scores(model, cells), [s])
        np.testing.assert_array_equal(region.frequencies[0], [0.5, 0.3, 0.2])
        pred = frequency_score_predict(region.frequencies[0], region.centroid_scores)
        dec = decision(model, mean_embedding(small_map, s))
        assert pred == pytest.approx(dec, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            frequency_score_predict(np.ones(3) / 3, np.ones(4))


class TestScoreGradient:
    def test_zero_beta(self, small_map):
        model = LinearModel(beta=np.zeros(small_map.D), bias=1.0, rff=small_map,
                            reg_c=1.0)
        np.testing.assert_array_equal(score_gradient(model, np.ones(2)), 0.0)

    def test_matches_jacobian_transpose(self, small_map, rng):
        model = random_model(small_map, rng)
        for _ in range(5):
            x = rng.normal(size=2)
            direct = score_gradient(model, x)
            via_jac = featurize_jacobian(small_map, x).T @ model.beta
            np.testing.assert_allclose(direct, via_jac, atol=1e-12)

    def test_finite_differences(self, small_map, rng):
        model = random_model(small_map, rng)
        h = 1e-6
        for _ in range(10):
            x = rng.normal(size=2)
            g = score_gradient(model, x)
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[j] = (cell_scores(model, x + e)[0] - cell_scores(model, x - e)[0]) / (2 * h)
            assert np.abs(g - fd).max() / max(np.abs(g).max(), 1e-12) <= 1e-5

    def test_linear_in_beta(self, small_map, rng):
        beta = rng.normal(size=small_map.D)
        m1 = LinearModel(beta=beta, bias=0.0, rff=small_map, reg_c=1.0)
        m2 = LinearModel(beta=2 * beta, bias=0.0, rff=small_map, reg_c=1.0)
        x = rng.normal(size=2)
        np.testing.assert_allclose(score_gradient(m2, x), 2 * score_gradient(m1, x),
                                   rtol=1e-15)


class TestRankSum:
    def test_identical_samples_give_one(self):
        assert rank_sum_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_extreme_separation_exact(self):
        # exhaustive over C(6,3)=20 orderings: 2 as extreme -> p = 0.1
        assert rank_sum_test([1, 2, 3], [10, 11, 12]) == pytest.approx(0.1, abs=0)

    def test_exact_branch_predicate(self):
        assert use_exact_rank_sum(3, 3)
        assert use_exact_rank_sum(20, 5)
        assert use_exact_rank_sum(21, 4)  # min 4 <= 20 and combined 25 <= 25
        assert not use_exact_rank_sum(21, 5)  # combined 26
        assert not use_exact_rank_sum(13, 13)  # combined 26
        assert not use_exact_rank_sum(50, 50)

    def test_matches_brute_force_enumeration(self, rng):
        # every split with combined n <= 10, with ties injected
        for n1 in range(1, 6):
            for n2 in range(n1, 8):
                if n1 + n2 > 10:
                    continue
                a = rng.integers(0, 4, n1).astype(float)
                b = rng.integers(0, 4, n2).astype(float)
                assert rank_sum_test(a, b) == brute_force_rank_sum_p(a, b)

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, np.inf, -np.inf]),
                    min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_midranks_match_the_loop(self, values):
        values = np.array(values)
        ranks, counts = _midranks(values)
        reference = loop_midranks(values)
        assert ranks.tobytes() == reference.tobytes()
        # one count per tie group, in value order, which is rank order
        np.testing.assert_array_equal(counts, np.unique(reference, return_counts=True)[1])

    @pytest.mark.parametrize("n1, n2", [(3, 30), (4, 24), (2, 40)])
    def test_normal_branch_matches_enumerated_variance_with_ties(self, rng, n1, n2):
        assert not use_exact_rank_sum(n1, n2)
        for _ in range(5):
            a = rng.integers(0, 4, n1).astype(float)
            b = rng.integers(0, 4, n2).astype(float)
            expected = brute_force_rank_sum_p(a, b, normal=True)
            assert rank_sum_test(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_normal_branch_close_to_reference(self, rng):
        scipy_stats = pytest.importorskip("scipy.stats")
        for _ in range(10):
            a = rng.normal(size=30)
            b = rng.normal(loc=rng.uniform(-1, 1), size=35)
            ours = rank_sum_test(a, b)
            ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided",
                                           use_continuity=True,
                                           method="asymptotic").pvalue
            assert ours == pytest.approx(float(ref), abs=1e-10)

    def test_p_clamped_positive(self, rng):
        a = rng.normal(size=50)
        b = rng.normal(loc=100.0, size=50)
        p = rank_sum_test(a, b)
        assert 0.0 < p <= 1.0

    def test_empty_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            rank_sum_test([], [1.0])

    def test_all_tied_normal_branch(self):
        assert rank_sum_test([5.0] * 30, [5.0] * 30) == 1.0
