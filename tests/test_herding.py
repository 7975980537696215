import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkernel import (
    herd,
    mean_embedding,
    sample_frequencies,
    subset,
    uniform_subsample,
)
from setkernel import herding, workers
from setkernel.config import derive_seed
from setkernel.embedding import embed_matrix
from setkernel.herding import HerdingResult
from setkernel.rff import featurize_batch, featurize_f32trig
from setkernel.synth import _draw_sample, benchmark_spec

from conftest import make_sample


class TestHerd:
    def test_m_equals_n_is_permutation(self, small_map, rng):
        s = make_sample(rng.normal(size=(17, 2)))
        res = herd(small_map, s, 17)
        assert sorted(res.selected_indices) == list(range(17))

    def test_single_cell(self, small_map):
        res = herd(small_map, make_sample([[1.0, 2.0]]), 1)
        assert res.selected_indices == (0,)

    @pytest.mark.parametrize("in_flight", [1, 2, 3])
    def test_default_budget_is_this_process_share(self, small_map, rng, monkeypatch,
                                                  in_flight):
        # without max_cache_bytes, a herd beside k - 1 others takes 1/k of the default
        budgets, source = [], herding._trig_source
        monkeypatch.setattr(herding, "_trig_source", lambda rmap, X, cache:
                            budgets.append(cache) or source(rmap, X, cache))
        monkeypatch.setattr(workers, "_workers", in_flight)
        herd(small_map, make_sample(rng.normal(size=(30, 2))), 5)
        herd(small_map, make_sample(rng.normal(size=(30, 2))), 5, max_cache_bytes=4096)
        assert budgets == [herding.DEFAULT_CACHE_BYTES // in_flight, 4096]

    def test_first_pick_matches_brute_force(self, small_map, rng):
        # oracle: evaluate theta0 . phi(x_i) over every cell directly
        s = make_sample(rng.normal(size=(60, 2)))
        phi = featurize_batch(small_map, s.cells)
        theta0 = phi.mean(axis=0)
        expected = int(np.argmax(phi @ theta0))
        res = herd(small_map, s, 5)
        assert res.selected_indices[0] == expected

    def test_greedy_prefix_property(self, small_map, rng):
        s = make_sample(rng.normal(size=(80, 2)))
        long = herd(small_map, s, 40)
        short = herd(small_map, s, 10)
        assert long.selected_indices[:10] == short.selected_indices

    def test_deterministic(self, small_map, rng):
        s = make_sample(rng.normal(size=(50, 2)))
        assert herd(small_map, s, 20) == herd(small_map, s, 20)

    def test_chunked_path_matches_cached(self, small_map, rng, used_sources, featurized):
        s = make_sample(rng.normal(size=(100, 2)))
        cached = herd(small_map, s, 30)
        assert_cached_rows(s.cells, featurized, 100, 30)
        featurized.clear()
        chunked = herd(small_map, s, 30, max_cache_bytes=1024)  # 4 rows at D=64
        assert_cached_rows(s.cells, featurized, 4, 30)
        assert used_sources == ["_scan_source", "_scan_source"]
        assert cached.selected_indices == chunked.selected_indices

    @pytest.mark.parametrize("m", [0, -1, 51])
    def test_bad_m(self, small_map, rng, m):
        s = make_sample(rng.normal(size=(50, 2)))
        with pytest.raises(ValueError):
            herd(small_map, s, m)

    def test_beats_uniform_on_mixture(self, rng):
        # reduced-scale version of the dominance property
        rmap = sample_frequencies(2, 500, 1.0, 77)
        errs_h, errs_u = [], []
        for seed in range(5):
            gen = np.random.default_rng(seed)
            comp = gen.random(500) < 0.5
            cells = np.where(comp[:, None], gen.normal(size=(500, 2)),
                             gen.normal(loc=(4.0, 0.0), size=(500, 2)))
            s = make_sample(cells)
            mu = embed_matrix(rmap, s.cells)
            for m in (16, 64):
                hsub = subset(s, herd(rmap, s, m))
                usub = subset(s, uniform_subsample(s, m, seed * 10 + m))
                errs_h.append(np.linalg.norm(embed_matrix(rmap, hsub.cells) - mu))
                errs_u.append(np.linalg.norm(embed_matrix(rmap, usub.cells) - mu))
        assert np.mean(errs_h) < np.mean(errs_u)


def f32trig_phi(rmap, cells):
    """phi = scale * t32, scaled in float64 as herding scales it."""
    return np.multiply(featurize_f32trig(rmap, cells), rmap.scale, dtype=np.float64)


def assert_copies_in_storage_order(cells, picks):
    """Each pick's earlier copies (same cell values at a smaller index) were picked before it."""
    for t, i in enumerate(picks):
        copies = np.flatnonzero((cells[:i] == cells[i]).all(axis=1))
        assert set(copies) <= set(picks[:t])


def oracle_herd(rmap, cells, m):
    """Reference loop: rescan phi @ theta over every cell on each pick."""
    phi = featurize_batch(rmap, cells)
    theta0 = phi.mean(axis=0)
    theta = theta0.copy()
    taken = np.zeros(len(cells), dtype=bool)
    picks = []
    for _ in range(m):
        scores = phi @ theta
        scores[taken] = -np.inf
        i = int(np.argmax(scores))
        picks.append(i)
        taken[i] = True
        theta += theta0 - phi[i]
    return tuple(picks)


@pytest.fixture
def used_sources(monkeypatch):
    """The score source of each herd, in call order: "_gram32" when _scan_source
    stepped its scores by rows of _gram32's K32 between screens, "_scan_source"
    when it screened every pick."""
    used = []
    scan = herding._scan_source
    monkeypatch.setattr(herding, "_scan_source", lambda *a: used.append(
        "_scan_source" if a[-1] is None else "_gram32") or scan(*a))
    return used


@pytest.fixture
def screen_only(monkeypatch):
    """Herds take the per-pick screen at any n, as they do above GRAM_MAX_N_PER_M * m."""
    monkeypatch.setattr(herding, "GRAM_MAX_N_PER_M", 0)


@pytest.fixture
def featurized(monkeypatch):
    """The cells of each featurize_f32trig call herding made, in call order."""
    calls = []
    f = herding.featurize_f32trig
    monkeypatch.setattr(herding, "featurize_f32trig",
                        lambda rmap, X: calls.append(np.array(X)) or f(rmap, X))
    return calls


def assert_cached_rows(cells, featurized, k, m):
    """An m-pick screen cached t32 of cells[:k] and recomputed only cells[k:].

    Its first featurization is the cache. Each later one, a pick's product
    or rows it rescores, holds only uncached cells (none when k = n), and
    each of the m products recomputes all n - k of them.
    """
    assert np.array_equal(featurized[0], cells[:k])
    uncached = {row.tobytes() for row in cells[k:]}
    recomputed = [row for X in featurized[1:] for row in X]
    assert all(row.tobytes() in uncached for row in recomputed)
    assert len(recomputed) >= m * (len(cells) - k)


def rows_cached(cells, D, cache):
    """The rows of t32 that max_cache_bytes=cache holds: floor(cache / (4 D)) at most."""
    return min(len(cells), cache // (4 * D))


@pytest.fixture
def reads(monkeypatch):
    """What herd read, in order: the rows of K32 it read, and for each screen
    the dtype of the product's vector and of its scaled result."""
    calls = []

    class RecordedK(np.ndarray):
        def __getitem__(self, i):
            calls.append(int(i))
            return np.asarray(self)[i]

    def screen(products, theta, scale, f=herding._screen):
        scores, tol = f(lambda v: calls.append(v.dtype) or products(v), theta, scale)
        calls.append(scores.dtype)
        return scores, tol

    gram32 = herding._gram32
    monkeypatch.setattr(herding, "_gram32", lambda t32: gram32(t32).view(RecordedK))
    monkeypatch.setattr(herding, "_screen", screen)
    return calls


class TestColumnSources:
    """Every score source (K32 between screens, cached or recomputing
    per-pick screen) reproduces the oracle's picks.

    n > 256 spans at least two row blocks of K32's upper triangle. In
    test_sources_match_oracle n = 350 and 400 take K32; n = 450 and 481 are
    above GRAM_MAX_N_PER_M * m but within D, and n = 700 is above D, so they
    take the per-pick screen. max_cache_bytes=1024 holds no trig row at
    D >= 300, so the screen's values are recomputed at every pick.
    """

    M = 80

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [350, 400, 450, 481, 700])
    def test_sources_match_oracle(self, used_sources, featurized, seed, n):
        m = 440 // herding.GRAM_MAX_N_PER_M  # GRAM_MAX_N_PER_M * m is in [400, 450)
        rmap = sample_frequencies(2, 600, 1.0, 40 + seed)
        gen = np.random.default_rng(seed)
        comp = gen.random(n) < 0.3
        cells = np.where(comp[:, None], gen.normal(size=(n, 2)),
                         gen.normal(loc=(4.0, 0.0), size=(n, 2)))
        s = make_sample(cells)
        expected = oracle_herd(rmap, cells, m)
        for cache, source in [(herding.DEFAULT_CACHE_BYTES,
                               "_gram32" if n <= 400 else "_scan_source"),
                              (1024, "_scan_source")]:
            used_sources.clear()
            featurized.clear()
            assert herd(rmap, s, m, max_cache_bytes=cache).selected_indices == expected
            assert used_sources == [source]
            assert_cached_rows(cells, featurized, rows_cached(cells, 600, cache), m)

    @pytest.mark.parametrize("D, cache, source", [
        (400, herding.DEFAULT_CACHE_BYTES, "_gram32"),
        (300, herding.DEFAULT_CACHE_BYTES, "_scan_source"),
        (400, 1024, "_scan_source"),  # nothing cached
        (2, herding.DEFAULT_CACHE_BYTES, "_scan_source"),
    ])
    def test_duplicate_cells_go_to_smallest_index(self, used_sources, featurized, D, cache,
                                                  source):
        # exact ties: every copy of a cell scores the same, the first copy wins.
        # At D=2 the rescored 16-byte phi rows alternate 32-byte alignment; there
        # the float32 sin/cos can move picks off the float64 oracle's (they do
        # for frequency seed 1), so only the storage order of copies is checked
        gen = np.random.default_rng(5)
        cells = np.round(gen.normal(size=(360, 2)), 1)
        cells[::7] = cells[0]
        rmap = sample_frequencies(2, D, 1.0, 9)
        picks = herd(rmap, make_sample(cells), self.M, max_cache_bytes=cache).selected_indices
        assert used_sources == [source]
        assert_cached_rows(cells, featurized, rows_cached(cells, D, cache), self.M)
        assert_copies_in_storage_order(cells, picks)
        assert len(set(map(tuple, cells[list(picks)]))) < self.M  # some pick has a copy
        if D > 2:
            assert picks == oracle_herd(rmap, cells, self.M)
            assert 0 in picks  # the group of 52 copies of cell 0 is reached

    @pytest.mark.parametrize("chunk_rows", [64, 7])
    @pytest.mark.parametrize("copies", [False, True])
    def test_stream_chunks_match_oracle(self, used_sources, featurized, monkeypatch,
                                        chunk_rows, copies):
        # 360 cells span many chunks; with copies, the rows rescored for one
        # pick come from several chunks
        monkeypatch.setattr(herding, "CHUNK_ROWS", chunk_rows)
        gen = np.random.default_rng(chunk_rows)
        cells = np.round(gen.normal(size=(360, 2)), 1)
        if copies:
            cells[::7] = cells[100]
        rmap = sample_frequencies(2, 400, 1.0, 9)
        picks = herd(rmap, make_sample(cells), self.M, max_cache_bytes=1024).selected_indices
        assert used_sources == ["_scan_source"]
        assert_cached_rows(cells, featurized, 0, self.M)
        assert picks == oracle_herd(rmap, cells, self.M)

    @pytest.mark.parametrize("n, cache, source", [
        (300, herding.DEFAULT_CACHE_BYTES, "_gram32"),
        (600, herding.DEFAULT_CACHE_BYTES, "_scan_source"),
        (300, 1024, "_scan_source"),  # nothing cached
    ])
    def test_reads_per_source(self, used_sources, reads, featurized, n, cache, source):
        # with K32, picks 0, B, 2B, ... take a screen product and each other pick
        # reads the row of K32 of the pick before it: ceil(m / B) products and
        # m - ceil(m / B) rows. The per-pick screen takes m products. Each
        # product is float32, scaled to float64 scores
        rmap = sample_frequencies(2, 400, 1.0, 3)
        cells = np.random.default_rng(n).normal(size=(n, 2))
        picks = herd(rmap, make_sample(cells), self.M, max_cache_bytes=cache).selected_indices
        assert used_sources == [source]
        assert_cached_rows(cells, featurized, rows_cached(cells, 400, cache), self.M)
        screened = [np.float32, np.float64]
        refresh = herding.GRAM_REFRESH if source == "_gram32" else 1
        assert reads == [r for t in range(self.M)
                         for r in (screened if t % refresh == 0 else [picks[t - 1]])]
        assert reads.count(np.float32) == -(-self.M // refresh)
        assert picks == oracle_herd(rmap, cells, self.M)
        reads.clear()
        herd(rmap, make_sample(cells), 1, max_cache_bytes=cache)  # n > 12 m: the screen
        assert reads == screened

    @pytest.mark.parametrize("fixture", ["d2", "d30", "copies"])
    def test_gram_and_screen_agree(self, used_sources, monkeypatch, fixture):
        # the same picks from K32 between screens as from a screen at every
        # pick, forced through the size constant; copies tie exactly in the
        # float64 rescore, whichever source put them in the window
        gen = np.random.default_rng(19)
        if fixture == "d2":
            cells, rmap = gen.normal(size=(1000, 2)), sample_frequencies(2, 1000, 1.0, 20)
        elif fixture == "d30":
            cells = 2.5 * gen.normal(size=(5, 30))[gen.integers(0, 5, 500)]
            cells += gen.normal(size=cells.shape)
            rmap = sample_frequencies(30, 2000, 30.0, 21)
        else:  # 60 distinct cells x 10 copies
            cells = np.tile(np.round(gen.normal(size=(60, 2)), 2), (10, 1))
            rmap = sample_frequencies(2, 600, 1.0, 22)
        sample = make_sample(cells)
        m = 100
        picks = herd(rmap, sample, m).selected_indices
        monkeypatch.setattr(herding, "GRAM_MAX_N_PER_M", 0)
        assert herd(rmap, sample, m).selected_indices == picks
        assert used_sources == ["_gram32", "_scan_source"]
        assert_copies_in_storage_order(cells, picks)
        if fixture == "copies":
            assert len(set(map(tuple, cells[list(picks)]))) < m  # some pick has a copy


class TestUniformSubsample:
    def test_m_equals_n_is_permutation(self, rng):
        s = make_sample(rng.normal(size=(12, 2)))
        res = uniform_subsample(s, 12, seed=5)
        assert sorted(res.selected_indices) == list(range(12))

    def test_deterministic(self, rng):
        s = make_sample(rng.normal(size=(30, 2)))
        assert uniform_subsample(s, 7, 99) == uniform_subsample(s, 7, 99)

    def test_frequencies_are_uniform(self):
        # frequency oracle: n=10, m=1 over 1e4 seeds; each index ~ 0.1
        s = make_sample(np.arange(20, dtype=float).reshape(10, 2))
        counts = np.zeros(10)
        n_seeds = 10_000
        for seed in range(n_seeds):
            counts[uniform_subsample(s, 1, seed).selected_indices[0]] += 1
        freqs = counts / n_seeds
        assert np.all(np.abs(freqs - 0.1) <= 0.01)

    def test_m_exceeds_n(self, rng):
        s = make_sample(rng.normal(size=(5, 2)))
        with pytest.raises(ValueError, match="exceeds"):
            uniform_subsample(s, 6, 0)


class TestSubset:
    def test_identity(self, small_map, rng):
        s = make_sample(rng.normal(size=(6, 2)))
        res = HerdingResult(selected_indices=tuple(range(6)))
        np.testing.assert_array_equal(subset(s, res).cells, s.cells)

    def test_selection_order_preserved(self):
        s = make_sample([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], sample_id="abc")
        res = HerdingResult(selected_indices=(2, 0))
        out = subset(s, res)
        np.testing.assert_array_equal(out.cells, [[2.0, 2.0], [0.0, 0.0]])
        assert out.sample_id == "abc"
        assert out.marker_names == s.marker_names

    def test_out_of_range(self):
        s = make_sample([[0.0, 0.0]])
        res = HerdingResult(selected_indices=(1,))
        with pytest.raises(ValueError, match="out of range"):
            subset(s, res)

    def test_herded_embedding_error_shrinks_with_m(self, rng):
        rmap = sample_frequencies(2, 500, 1.0, 3)
        s = make_sample(rng.normal(size=(400, 2)))
        mu = mean_embedding(rmap, s)
        errs = []
        for m in (10, 40, 160):
            sub = subset(s, herd(rmap, s, m))
            errs.append(np.linalg.norm(mean_embedding(rmap, sub) - mu))
        assert errs[0] > errs[1] > errs[2]


class TestHerdingResultInvariants:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            HerdingResult(selected_indices=(0, 0))


class TestFloat32Trig:
    """Herding featurizes with float32 sin/cos on float64-reduced arguments.

    The picks must still be those of the float64 oracle, also where the
    arguments of sin/cos are large (raw intensities) and where the float64
    scores have a near-tie.
    """

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
    def test_agrees_with_float64_featurizer(self, scale):
        rmap = sample_frequencies(5, 2000, 1.0, 21)
        cells = np.random.default_rng(3).normal(size=(300, 5)) * scale
        t32 = featurize_f32trig(rmap, cells)
        assert t32.dtype == np.float32 and t32.shape == (300, 2000)
        assert np.abs(f32trig_phi(rmap, cells) - featurize_batch(rmap, cells)).max() <= 2e-8

    @pytest.mark.parametrize("rows", [1, 2000])  # one row; many trig passes
    def test_any_row_count(self, rows):
        rmap = sample_frequencies(3, 64, 1.0, 2)
        cells = np.random.default_rng(4).normal(size=(rows, 3)) * 1e3
        assert np.abs(f32trig_phi(rmap, cells) - featurize_batch(rmap, cells)).max() <= 2e-7

    def test_wrong_d_rejected(self, small_map):
        with pytest.raises(ValueError, match="map expects d=2"):
            featurize_f32trig(small_map, np.zeros((4, 3)))

    @pytest.mark.parametrize("D, cache, source", [
        (400, herding.DEFAULT_CACHE_BYTES, "_gram32"),
        (300, herding.DEFAULT_CACHE_BYTES, "_scan_source"),
        (400, 1024, "_scan_source"),  # nothing cached
    ])
    def test_raw_intensities_match_oracle(self, used_sources, featurized, D, cache, source):
        # cells ~1e4 with gamma=100: sin/cos arguments reach thousands of radians
        gen = np.random.default_rng(8)
        cells = np.abs(gen.normal(loc=1e4, scale=2e3, size=(360, 3)))
        rmap = sample_frequencies(3, D, 100.0, 17)
        picks = herd(rmap, make_sample(cells), 60, max_cache_bytes=cache).selected_indices
        assert used_sources == [source]
        assert_cached_rows(cells, featurized, rows_cached(cells, D, cache), 60)
        assert picks == oracle_herd(rmap, cells, 60)

    def test_criterion_2_sample_10_near_tie(self, used_sources, rescore_sets):
        # the float64 scores of the top two cells differ by 9.1e-8 at pick 120,
        # which scores stepped by a float32 Gram matrix without the float64
        # check flip. n = 2000 <= 12 * 334 takes K32
        spec = benchmark_spec(seed=0, sets_per_class=1, cells_per_set=2000)
        sample = _draw_sample(spec, spec.weights_neg, derive_seed(10, "accept-bench"), "s10")
        rmap = sample_frequencies(2, 2000, 1.0, derive_seed(10, "accept-rff"))
        picks = herd(rmap, sample, 334).selected_indices
        assert used_sources == ["_gram32"]
        assert picks == oracle_herd(rmap, sample.cells, 334)
        assert len(rescore_sets) == 334 and max(rescore_sets) > 1


@pytest.fixture
def rescore_sets(monkeypatch):
    """Sizes of the sets of cells the scan source rescores in float64, per pick."""
    sizes = []
    exact = herding._exact_scores
    monkeypatch.setattr(herding, "_exact_scores",
                        lambda trig, scale, theta, rows:
                        sizes.append(len(rows)) or exact(trig, scale, theta, rows))
    return sizes


class TestScreenedScan:
    """The scan source screens in float32 and certifies every pick in float64.

    Its picks must be exactly the float64 oracle's: near-ties included, and
    ties between copies of a cell going to the smallest index.
    """

    @pytest.mark.parametrize("rescore_rows", [256, 7])  # every window in one block; many
    def test_criterion_2_sample_10_near_tie(self, used_sources, rescore_sets, monkeypatch,
                                            screen_only, rescore_rows):
        # the float64 scores of the top two cells differ by 9.1e-8 at pick 120,
        # which a float32 screen without the float64 check flips
        monkeypatch.setattr(herding, "RESCORE_ROWS", rescore_rows)
        spec = benchmark_spec(seed=0, sets_per_class=1, cells_per_set=2000)
        sample = _draw_sample(spec, spec.weights_neg, derive_seed(10, "accept-bench"), "s10")
        rmap = sample_frequencies(2, 2000, 1.0, derive_seed(10, "accept-rff"))
        picks = herd(rmap, sample, 249).selected_indices
        assert used_sources == ["_scan_source"]
        assert picks == oracle_herd(rmap, sample.cells, 249)
        assert len(rescore_sets) == 249 and max(rescore_sets) > 1

    def test_duplicate_heavy_sample(self, used_sources, rescore_sets):
        # 100 distinct cells x 300 copies: every pick's rescore set holds all
        # remaining copies of the top cell, more than one rescore chunk
        distinct = np.round(np.random.default_rng(11).normal(size=(100, 2)), 2)
        cells = np.tile(distinct, (300, 1))
        rmap = sample_frequencies(2, 32, 1.0, 13)
        picks = herd(rmap, make_sample(cells), 60).selected_indices
        assert used_sources == ["_scan_source"]
        assert picks == oracle_herd(rmap, cells, 60)
        assert min(rescore_sets) > herding.RESCORE_ROWS
        assert_copies_in_storage_order(cells, picks)

    def test_column_is_scaled_in_float64(self):
        # the screen's product is float32; scale * product in float32 would round
        # the scaling, which the screen's bound does not allow for
        rmap = sample_frequencies(2, 64, 1.0, 4)
        cells = np.random.default_rng(12).normal(size=(700, 2))
        t32 = featurize_f32trig(rmap, cells)
        theta = np.random.default_rng(13).normal(size=64)
        scores, _ = herding._screen(t32.__matmul__, theta, rmap.scale)
        assert scores.dtype == np.float64
        np.testing.assert_array_equal(
            scores, (t32 @ theta.astype(np.float32)).astype(np.float64) * rmap.scale)

    def test_late_picks_rescore_few_cells(self, used_sources, rescore_sets, screen_only):
        # standardized 30-marker cells at gamma=30 have a flat score top; a screen
        # whose tolerance grows with the pick count rescores hundreds of cells
        # per late pick here, one bounded per pick only a few
        gen = np.random.default_rng(16)
        cells = 2.5 * gen.normal(size=(5, 30))[gen.integers(0, 5, 2000)]
        cells += gen.normal(size=cells.shape)
        cells = (cells - cells.mean(axis=0)) / cells.std(axis=0)
        rmap = sample_frequencies(30, 2000, 30.0, 17)
        picks = herd(rmap, make_sample(cells), 200).selected_indices
        assert used_sources == ["_scan_source"]
        assert picks == oracle_herd(rmap, cells, 200)
        assert len(rescore_sets) == 200 and max(rescore_sets[100:]) <= 10

    @pytest.mark.parametrize("D", [2, 4])
    def test_few_frequencies_match_oracle(self, used_sources, D):
        # at small D the float32 rounding of the scaling is largest against gamma_D
        cells = np.random.default_rng(D).normal(size=(500, 2))
        rmap = sample_frequencies(2, D, 1.0, 21)
        picks = herd(rmap, make_sample(cells), 100).selected_indices
        assert used_sources == ["_scan_source"]
        assert picks == oracle_herd(rmap, cells, 100)

    def test_identical_cells_take_storage_order(self, used_sources):
        picks = herd(sample_frequencies(3, 64, 1.0, 2), make_sample(np.ones((3000, 3))), 50)
        assert used_sources == ["_scan_source"]
        assert picks.selected_indices == tuple(range(50))

    def test_picked_row_is_not_rebuilt(self, rescore_sets, monkeypatch):
        # theta steps by the picked phi row that the float64 rescore built, so
        # phi rows are built only for theta0 and for the rescored windows
        built = []
        phi_rows = herding._phi_rows
        monkeypatch.setattr(herding, "_phi_rows",
                            lambda *a: built.append(len(phi := phi_rows(*a))) or phi)
        monkeypatch.setattr(herding, "RESCORE_ROWS", 2)
        cells = np.random.default_rng(18).normal(size=(300, 2))
        herd(sample_frequencies(2, 400, 1.0, 3), make_sample(cells), 80)
        blocks = [min(2, k - s) for k in rescore_sets for s in range(0, k, 2)]
        assert built == [256, 44] + blocks and max(rescore_sets) > 2

    def test_cached_peak_is_t32_plus_rescore_rows(self, used_sources):
        # beside t32's n * D * 4 bytes the herd holds one block of float64 phi
        # rows, THETA0_ROWS for theta0 or RESCORE_ROWS (float32 gathered,
        # float64 scaled) to rescore, and O(n) vectors, not copies of the
        # n x d cells
        n, d, D = 20000, 30, 1000
        sample = make_sample(np.random.default_rng(14).normal(size=(n, d)))
        rmap = sample_frequencies(d, D, 30.0, 15)
        tracemalloc.start()
        try:
            herd(rmap, sample, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert used_sources == ["_scan_source"]
        block = max(herding.THETA0_ROWS * D * 8, herding.RESCORE_ROWS * D * 12)
        assert peak - n * D * 4 <= block + 64 * n


class TestPartialCache:
    """A budget below n * D * 4 bytes caches t32 of the first rows that fit and
    recomputes the rest at each pick; the picks stay the fully cached herd's.

    n = 360 > D = 300 takes the screen. Copies of one cell sit on both sides
    of every boundary k tested but 0, so rows rescored for one pick come
    from the cache and from recomputation.
    """

    N, D, M = 360, 300, 60

    @pytest.mark.parametrize("chunk_rows", [herding.CHUNK_ROWS, 5])
    @pytest.mark.parametrize("k", [0, 1, 37, N - 1])
    def test_picks_match_cached_herd(self, used_sources, featurized, monkeypatch, k,
                                     chunk_rows):
        monkeypatch.setattr(herding, "CHUNK_ROWS", chunk_rows)
        cells = np.round(np.random.default_rng(5).normal(size=(self.N, 2)), 1)
        cells[::7] = cells[[1, 36, 37, 358, 359]] = cells[0]  # 0, 1 | 36, 37 | 358, 359
        rmap = sample_frequencies(2, self.D, 1.0, 9)
        sample = make_sample(cells)
        cached = herd(rmap, sample, self.M).selected_indices
        featurized.clear()
        budget = (k + 1) * 4 * self.D - 1  # one byte short of k + 1 rows
        picks = herd(rmap, sample, self.M, max_cache_bytes=budget).selected_indices
        assert used_sources == ["_scan_source", "_scan_source"]
        assert_cached_rows(cells, featurized, k, self.M)
        assert picks == cached == oracle_herd(rmap, cells, self.M)
        assert_copies_in_storage_order(cells, picks)
        assert np.count_nonzero((cells[list(picks)] == cells[0]).all(axis=1)) > 1


class TestScreenProperties:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), D=st.sampled_from([2, 4, 64, 2000]),
           log_norm=st.floats(-45.0, 30.0))
    def test_screen_bound_holds(self, seed, D, log_norm):
        # |s_j - phi_j . theta| <= tol for float32 sin/cos rows and theta of any
        # norm, large (no float32 overflow) down to float32 subnormals
        gen = np.random.default_rng(seed)
        angles = gen.uniform(-np.pi, np.pi, size=(50, D // 2)).astype(np.float32)
        t32 = np.hstack([np.sin(angles), np.cos(angles)])
        theta = gen.normal(size=D) * 10.0 ** log_norm
        scale = float(np.sqrt(2.0 / D))
        scores, tol = herding._screen(t32.__matmul__, theta, scale)
        exact = (t32.astype(np.longdouble) @ theta.astype(np.longdouble)) * scale
        assert (np.abs(scores - exact) <= tol).all()
        u, norm = 2.0 ** -24, np.linalg.norm(theta)  # the bound derived in _scan_source
        gamma_d = D * u / (1 - D * u)
        assert tol >= scale * np.sqrt(D) * (u + gamma_d * (1 + u)) * norm

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["d2", "raw", "d30"]),
           D=st.sampled_from([8, 64, 256]), n=st.integers(2, 60), m=st.integers(1, 40),
           tile=st.sampled_from([5, 16, 256]))
    def test_gram_bound_holds(self, seed, kind, D, n, m, tile):
        # |scale^2 K32 - phi phi^T| <= e_K = scale^2 D gamma_D entrywise, the
        # mirrored tiles included, and with K32 stepping the scores between
        # screens, every pick's window holds the float64 argmax over the
        # untaken cells
        gen = np.random.default_rng(seed)
        n = min(n, D)
        m = min(m, n)
        if kind == "d2":
            cells, gamma = gen.normal(size=(n, 2)), 1.0
        elif kind == "raw":  # raw intensities: sin/cos arguments of thousands of radians
            cells, gamma = np.abs(gen.normal(loc=1e4, scale=2e3, size=(n, 3))), 100.0
        else:
            cells = 2.5 * gen.normal(size=(3, 30))[gen.integers(0, 3, n)]
            cells, gamma = cells + gen.normal(size=cells.shape), 30.0
        rmap = sample_frequencies(cells.shape[1], D, gamma, seed % 1000)
        t32, phi = featurize_f32trig(rmap, cells), f32trig_phi(rmap, cells)
        u = 2.0 ** -24
        e_k = rmap.scale ** 2 * D * (D * u / (1 - D * u))
        windows, grams = [], []
        exact, gram32 = herding._exact_scores, herding._gram32
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(herding, "GRAM_TILE", tile)
            K = np.multiply(gram32(t32), rmap.scale ** 2, dtype=np.float64)
            assert (np.abs(K - phi @ phi.T) <= e_k).all()
            patch.setattr(herding, "GRAM_MAX_N_PER_M", n)  # K32 at any m
            patch.setattr(herding, "_gram32", lambda t: grams.append(len(t)) or gram32(t))
            patch.setattr(herding, "_exact_scores", lambda trig, scale, theta, rows:
                          windows.append((theta.copy(), rows)) or exact(trig, scale, theta, rows))
            picks = herd(rmap, make_sample(cells), m).selected_indices
        assert grams == [n] and len(windows) == m
        for t, (theta, rows) in enumerate(windows):
            scores = exact(t32.__getitem__, rmap.scale, theta, np.arange(n))[0]
            scores[list(picks[:t])] = -np.inf
            best = int(np.argmax(scores))  # the smallest index on ties
            assert best in rows and picks[t] == best

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), distinct=st.integers(1, 30),
           n=st.integers(20, 120), m=st.integers(1, 12), chunk_rows=st.sampled_from([3, 7, 64]),
           cache_rows=st.integers(0, 120))
    def test_cached_and_streamed_screens_agree(self, seed, distinct, n, m, chunk_rows,
                                               cache_rows):
        # small samples with many copies of each cell, D below n so the screen
        # runs; the budget caches cache_rows rows of t32, all of them from n on
        gen = np.random.default_rng(seed)
        cells = np.round(gen.normal(size=(distinct, 2)), 1)[gen.integers(0, distinct, n)]
        rmap = sample_frequencies(2, 16, 1.0, seed % 1000)
        sample = make_sample(cells)
        m = min(m, n)
        cached = herd(rmap, sample, m).selected_indices
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(herding, "CHUNK_ROWS", chunk_rows)
            streamed = herd(rmap, sample, m, max_cache_bytes=cache_rows * 4 * 16).selected_indices
        assert cached == streamed
        assert_copies_in_storage_order(cells, cached)
