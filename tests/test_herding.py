import numpy as np
import pytest

from setkernel import (
    herd,
    mean_embedding,
    sample_frequencies,
    subset,
    uniform_subsample,
)
from setkernel import herding
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

    def test_chunked_path_matches_cached(self, small_map, rng):
        s = make_sample(rng.normal(size=(100, 2)))
        cached = herd(small_map, s, 30)
        chunked = herd(small_map, s, 30, max_cache_bytes=1024)
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
    """Names of the herding column sources called, in call order."""
    used = []
    for name in ("_gram_source", "_scan_source", "_chunked_source"):
        source = getattr(herding, name)
        monkeypatch.setattr(herding, name,
                            lambda *a, f=source, tag=name: used.append(tag) or f(*a))
    return used


@pytest.fixture
def column_calls(monkeypatch):
    """The cells whose column K[:, i] herd asked its source for, in call order."""
    calls = []
    for name in ("_gram_source", "_scan_source", "_chunked_source"):
        def counted(*a, f=getattr(herding, name)):
            s0, column, pick = f(*a)
            return s0, lambda i: calls.append(i) or column(i), pick
        monkeypatch.setattr(herding, name, counted)
    return calls


class TestColumnSources:
    """Every source of K[:, i] reproduces the oracle's picks.

    D=400 spans two frequency blocks and n > 256 at least two row stripes of
    the Gram build. n=450 is within 8 * M but above D, so it takes the scan
    source.
    """

    M = 60  # 8 * M = 480

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [350, 400, 450, 481, 700])
    def test_sources_match_oracle(self, used_sources, seed, n):
        rmap = sample_frequencies(2, 400, 1.0, 40 + seed)
        gen = np.random.default_rng(seed)
        comp = gen.random(n) < 0.3
        cells = np.where(comp[:, None], gen.normal(size=(n, 2)),
                         gen.normal(loc=(4.0, 0.0), size=(n, 2)))
        s = make_sample(cells)
        expected = oracle_herd(rmap, cells, self.M)
        gram = n <= herding.GRAM_MAX_N_PER_M * self.M and n <= rmap.D
        for cache, source in [(herding.DEFAULT_CACHE_BYTES,
                               "_gram_source" if gram else "_scan_source"),
                              (1024, "_chunked_source")]:
            used_sources.clear()
            assert herd(rmap, s, self.M, max_cache_bytes=cache).selected_indices == expected
            assert used_sources == [source]

    @pytest.mark.parametrize("D, cache, source", [
        (400, herding.DEFAULT_CACHE_BYTES, "_gram_source"),
        (300, herding.DEFAULT_CACHE_BYTES, "_scan_source"),
        (400, 1024, "_chunked_source"),
    ])
    def test_duplicate_cells_go_to_smallest_index(self, used_sources, D, cache, source):
        # exact ties: every copy of a cell scores the same, the first copy wins
        gen = np.random.default_rng(5)
        cells = np.round(gen.normal(size=(360, 2)), 1)
        cells[::7] = cells[0]
        rmap = sample_frequencies(2, D, 1.0, 9)
        picks = herd(rmap, make_sample(cells), self.M, max_cache_bytes=cache).selected_indices
        assert used_sources == [source]
        assert picks == oracle_herd(rmap, cells, self.M)
        for t, i in enumerate(picks):
            copies = np.flatnonzero((cells[:i] == cells[i]).all(axis=1))
            assert set(copies) <= set(picks[:t])
        assert 0 in picks  # the group of 52 copies of cell 0 is reached


    @pytest.mark.parametrize("n, cache, source", [
        (300, herding.DEFAULT_CACHE_BYTES, "_gram_source"),
        (600, herding.DEFAULT_CACHE_BYTES, "_scan_source"),
        (300, 1024, "_chunked_source"),
    ])
    def test_m_picks_take_m_minus_1_columns(self, used_sources, column_calls, n, cache,
                                            source):
        rmap = sample_frequencies(2, 400, 1.0, 3)
        cells = np.random.default_rng(n).normal(size=(n, 2))
        picks = herd(rmap, make_sample(cells), self.M, max_cache_bytes=cache).selected_indices
        assert used_sources == [source]
        assert column_calls == list(picks[:-1])  # none for the last pick
        assert picks == oracle_herd(rmap, cells, self.M)
        column_calls.clear()
        herd(rmap, make_sample(cells), 1, max_cache_bytes=cache)
        assert column_calls == []


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
        res = HerdingResult(selected_indices=tuple(range(6)), method="uniform", m=6)
        np.testing.assert_array_equal(subset(s, res).cells, s.cells)

    def test_selection_order_preserved(self):
        s = make_sample([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], sample_id="abc")
        res = HerdingResult(selected_indices=(2, 0), method="herding", m=2)
        out = subset(s, res)
        np.testing.assert_array_equal(out.cells, [[2.0, 2.0], [0.0, 0.0]])
        assert out.sample_id == "abc"
        assert out.marker_names == s.marker_names

    def test_out_of_range(self):
        s = make_sample([[0.0, 0.0]])
        res = HerdingResult(selected_indices=(1,), method="uniform", m=1)
        with pytest.raises(ValueError, match="out of range"):
            subset(s, res)

    def test_herded_embedding_error_shrinks_with_m(self, rng):
        rmap = sample_frequencies(2, 500, 1.0, 3)
        s = make_sample(rng.normal(size=(400, 2)))
        mu = mean_embedding(rmap, s).mu
        errs = []
        for m in (10, 40, 160):
            sub = subset(s, herd(rmap, s, m))
            errs.append(np.linalg.norm(mean_embedding(rmap, sub).mu - mu))
        assert errs[0] > errs[1] > errs[2]


class TestHerdingResultInvariants:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            HerdingResult(selected_indices=(0, 0), method="uniform", m=2)

    def test_length_must_match_m(self):
        with pytest.raises(ValueError):
            HerdingResult(selected_indices=(0,), method="uniform", m=2)


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
        fast = featurize_f32trig(rmap, cells)
        assert fast.dtype == np.float64 and fast.shape == (300, 2000)
        assert np.abs(fast - featurize_batch(rmap, cells)).max() <= 2e-8

    @pytest.mark.parametrize("rows", [1, 2000])  # one row; many trig passes
    def test_any_row_count(self, rows):
        rmap = sample_frequencies(3, 64, 1.0, 2)
        cells = np.random.default_rng(4).normal(size=(rows, 3)) * 1e3
        assert np.abs(featurize_f32trig(rmap, cells)
                      - featurize_batch(rmap, cells)).max() <= 2e-7

    def test_wrong_d_rejected(self, small_map):
        with pytest.raises(ValueError, match="map expects d=2"):
            featurize_f32trig(small_map, np.zeros((4, 3)))

    @pytest.mark.parametrize("D, cache, source", [
        (400, herding.DEFAULT_CACHE_BYTES, "_gram_source"),
        (300, herding.DEFAULT_CACHE_BYTES, "_scan_source"),
        (400, 1024, "_chunked_source"),
    ])
    def test_raw_intensities_match_oracle(self, used_sources, D, cache, source):
        # cells ~1e4 with gamma=100: sin/cos arguments reach thousands of radians
        gen = np.random.default_rng(8)
        cells = np.abs(gen.normal(loc=1e4, scale=2e3, size=(360, 3)))
        rmap = sample_frequencies(3, D, 100.0, 17)
        picks = herd(rmap, make_sample(cells), 60, max_cache_bytes=cache).selected_indices
        assert used_sources == [source]
        assert picks == oracle_herd(rmap, cells, 60)

    def test_criterion_2_sample_10_near_tie(self, used_sources):
        # the float64 scores of the top two cells differ by 9.1e-8 at pick 120;
        # a float32 Gram matrix flips that pick
        spec = benchmark_spec(seed=0, sets_per_class=1, cells_per_set=2000)
        sample = _draw_sample(spec, spec.weights_neg, derive_seed(10, "accept-bench"), "s10")
        rmap = sample_frequencies(2, 2000, 1.0, derive_seed(10, "accept-rff"))
        picks = herd(rmap, sample, 256).selected_indices
        assert used_sources == ["_gram_source"]
        assert picks == oracle_herd(rmap, sample.cells, 256)

    def test_raw_mode_is_unscaled_float32_trig(self):
        rmap = sample_frequencies(3, 400, 1.0, 6)
        cells = np.random.default_rng(9).normal(size=(500, 3)) * 1e3
        raw = featurize_f32trig(rmap, cells, raw=True)
        assert raw.dtype == np.float32 and raw.shape == (500, 400)
        np.testing.assert_array_equal(rmap.scale * raw.astype(np.float64),
                                      featurize_f32trig(rmap, cells))


@pytest.fixture
def rescore_sets(monkeypatch):
    """Sizes of the sets of cells the scan source rescores in float64, per pick."""
    sizes = []
    best = herding._best
    monkeypatch.setattr(herding, "_best",
                        lambda t32, scale, theta, rows, first:
                        sizes.append(len(rows)) or best(t32, scale, theta, rows, first))
    return sizes


class TestScreenedScan:
    """The scan source screens in float32 and certifies every pick in float64.

    Its picks must be exactly the float64 oracle's: near-ties included, and
    ties between copies of a cell going to the smallest index.
    """

    @pytest.mark.parametrize("rescore_rows", [herding.RESCORE_ROWS, 7])
    def test_criterion_2_sample_10_near_tie(self, used_sources, rescore_sets, monkeypatch,
                                            rescore_rows):
        # n = 2000 > 8 * 249 takes the scan source; the float64 scores of the
        # top two cells differ by 9.1e-8 at pick 120, which a float32 screen
        # without the float64 check flips
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
        for t, i in enumerate(picks):
            copies = np.flatnonzero((cells[:i] == cells[i]).all(axis=1))
            assert set(copies) <= set(picks[:t])

    def test_column_is_scaled_in_float64(self):
        rmap = sample_frequencies(2, 64, 1.0, 4)
        cells = np.random.default_rng(12).normal(size=(700, 2))
        t32 = featurize_f32trig(rmap, cells, raw=True)
        _, column, _ = herding._scan_source(rmap, cells)
        col = column(5)
        assert col.dtype == np.float64
        np.testing.assert_array_equal(
            col, (t32 @ t32[5]).astype(np.float64) * (rmap.scale * rmap.scale))

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
