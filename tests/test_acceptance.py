"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria use fixture datasets built with the synthetic generator; tolerances
are pinned here and nowhere else. Heavy artifacts (the 80-sample benchmark,
per-seed trained pipelines) are session-scoped and shared across criteria.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from setkernel import (
    LinearModel,
    PipelineConfig,
    cell_scores,
    cross_validate,
    decision,
    featurize_batch,
    kernel_exact,
    kmeans,
    mean_embedding,
    rank_sum_test,
    sample_frequencies,
    score_gradient,
    solve_hinge,
    subset,
    herd,
    uniform_subsample,
)
from setkernel.cli import main
from setkernel.classifier import stratified_folds
from setkernel.config import derive_seed
from setkernel.embedding import embed_matrix
from setkernel.interpret import pearson, region_scores, use_exact_rank_sum
from setkernel.synth import (
    _draw_sample,
    benchmark_spec,
    generate_dataset,
    variance_contrast_spec,
)
from setkernel.workers import map_items

from conftest import brute_force_rank_sum_p, make_sample


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def bench_dataset():
    return generate_dataset(benchmark_spec(seed=2024))


@dataclass
class PipelineArtifacts:
    rmap: object
    subs: list
    pooled: np.ndarray
    feats: np.ndarray
    model: LinearModel
    clusters: object
    labels: np.ndarray


def build_artifacts(dataset, seed):
    rmap = sample_frequencies(dataset.d, 2000, 1.0, derive_seed(seed, "rff"))
    subs = map_items(lambda s: subset(s, herd(rmap, s, 200)), dataset.samples)
    feats = np.stack([embed_matrix(rmap, s.cells) for s in subs])
    labels = np.asarray(dataset.labels, dtype=float)
    res = solve_hinge(feats, labels, reg_c=1.0)
    model = LinearModel(beta=res.w, bias=res.bias, rff=rmap, reg_c=1.0)
    pooled = np.concatenate([s.cells for s in subs], axis=0)
    clusters = kmeans(pooled, 10, derive_seed(seed, "kmeans"))
    return PipelineArtifacts(rmap=rmap, subs=subs, pooled=pooled, feats=feats,
                             model=model, clusters=clusters, labels=labels)


@pytest.fixture(scope="session")
def fixture_pipelines(bench_dataset):
    return {seed: build_artifacts(bench_dataset, seed) for seed in range(5)}


def test_criterion_1_kernel_approximation():
    t0 = time.perf_counter()
    rmap = sample_frequencies(10, 2000, 1.0, 20240801)
    gen = np.random.default_rng(42)
    errs = np.empty(1000)
    for i in range(1000):
        x = gen.normal(size=10)
        direction = gen.normal(size=10)
        direction /= max(np.linalg.norm(direction), 1e-12)
        x2 = x + gen.uniform(0, 3) * direction
        errs[i] = abs(featurize_batch(rmap, x)[0] @ featurize_batch(rmap, x2)[0]
                      - kernel_exact(x, x2, 1.0))
    elapsed = time.perf_counter() - t0
    ok = errs.max() <= 0.1 and errs.mean() <= 0.02 and elapsed < 5.0
    report(1, ok, f"max={errs.max():.4f} (<=0.1) mean={errs.mean():.4f} (<=0.02) "
                  f"runtime={elapsed:.1f}s (<5s)")
    assert errs.max() <= 0.1
    assert errs.mean() <= 0.02
    assert elapsed < 5.0


@pytest.fixture(scope="session")
def herding_sweep():
    """Mean embedding error over 20 seeds for both methods on the fixture."""
    spec = benchmark_spec(seed=0, sets_per_class=1, cells_per_set=2000)
    ms = sorted({16, 25, 32, 50, 64, 100, 128, 200, 256})
    herd_err = np.zeros((20, len(ms)))
    unif_err = np.zeros((20, len(ms)))
    t0 = time.perf_counter()
    for si in range(20):
        sample = _draw_sample(spec, spec.weights_neg,
                              derive_seed(si, "accept-bench"), f"s{si}")
        rmap = sample_frequencies(2, 2000, 1.0, derive_seed(si, "accept-rff"))
        mu_full = embed_matrix(rmap, sample.cells)
        order = np.asarray(herd(rmap, sample, max(ms)).selected_indices)
        for j, m in enumerate(ms):
            mu_h = embed_matrix(rmap, sample.cells[order[:m]])
            herd_err[si, j] = np.linalg.norm(mu_h - mu_full)
            res = uniform_subsample(sample, m, derive_seed(si, f"accept-unif:{m}"))
            mu_u = embed_matrix(rmap, sample.cells[np.asarray(res.selected_indices)])
            unif_err[si, j] = np.linalg.norm(mu_u - mu_full)
    elapsed = time.perf_counter() - t0
    return ms, herd_err.mean(axis=0), unif_err.mean(axis=0), elapsed


def test_criterion_2_herding_dominance_and_decay(herding_sweep):
    ms, herd_err, unif_err, elapsed = herding_sweep
    dom_ms = [25, 50, 100, 200]
    dominance = all(herd_err[ms.index(m)] < unif_err[ms.index(m)] for m in dom_ms)
    decay_ms = [16, 32, 64, 128, 256]
    idx = [ms.index(m) for m in decay_ms]
    herd_slope = float(np.polyfit(np.log(decay_ms), np.log(herd_err[idx]), 1)[0])
    unif_slope = float(np.polyfit(np.log(decay_ms), np.log(unif_err[idx]), 1)[0])
    ok = (dominance and herd_slope <= -0.8 and -0.7 <= unif_slope <= -0.3
          and elapsed < 120.0)
    report(2, ok, f"dominance={dominance} herd_slope={herd_slope:.3f} (<=-0.8) "
                  f"unif_slope={unif_slope:.3f} (in [-0.7,-0.3]) "
                  f"runtime={elapsed:.0f}s (<120s)")
    assert dominance
    assert herd_slope <= -0.8
    assert -0.7 <= unif_slope <= -0.3
    assert elapsed < 120.0


def test_criterion_2_herding_saturation(herding_sweep):
    # Stated as: herding embedding error at m=50 within 10% of its m=200
    # value. Incompatible with the <= -0.8 decay slope asserted above (that
    # slope forces err(50) to sit roughly 3x above err(200)); the underlying
    # saturation observation concerns classification accuracy, not embedding
    # error. Kept as specified and expected to fail; see the decisions ledger.
    ms, herd_err, _, _ = herding_sweep
    e50 = herd_err[ms.index(50)]
    e200 = herd_err[ms.index(200)]
    ok = abs(e50 - e200) <= 0.10 * e200
    report(2, ok, f"saturation err(50)={e50:.5f} err(200)={e200:.5f} "
                  f"ratio={e50 / e200:.2f} (required <=1.1)")
    assert ok, (
        f"embedding error at m=50 ({e50:.5f}) is {e50 / e200:.2f}x the m=200 "
        f"value ({e200:.5f}); a 1/m-rate decay (required: log-log slope <= -0.8) "
        f"cannot also be flat between m=50 and m=200"
    )


def test_criterion_3_end_to_end_accuracy(tmp_path_factory, capsys):
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("accept_bench")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps({
        "sets_per_class": 40, "cells_per_set": 1000, "seed": 2024,
        "components": [{"mean": [0.0, 0.0], "cov": [1.0, 1.0]},
                       {"mean": [4.0, 0.0], "cov": [1.0, 1.0]}],
        "weights_neg": [0.3, 0.7], "weights_pos": [0.7, 0.3],
    }))
    assert main(["synth", "--spec", str(spec_path), "--out", str(root / "data")]) == 0
    manifest = str(root / "data" / "manifest.csv")
    base = ["--gamma", "1", "--D", "2000", "--m", "200", "--folds", "5",
            "--runs", "5", "--reg-c", "1", "--seed", "7"]
    assert main(["crossval", "--manifest", manifest, "--out", str(root / "cv")]
                + base) == 0
    assert main(["crossval", "--manifest", manifest, "--out", str(root / "cv_null"),
                 "--permute-labels", "99"] + base) == 0
    capsys.readouterr()

    def mean_from(report_path):
        rows = [ln.split(",") for ln in report_path.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        per_run = {}
        for run, fold, acc in rows:
            per_run.setdefault(int(run), []).append(float(acc))
        return float(np.mean([np.mean(v) for v in per_run.values()]))

    acc = mean_from(root / "cv" / "report.csv")
    null_acc = mean_from(root / "cv_null" / "report.csv")
    elapsed = time.perf_counter() - t0
    ok = acc >= 0.90 and 0.35 <= null_acc <= 0.65 and elapsed < 300.0
    report(3, ok, f"accuracy={acc:.4f} (>=0.90) permuted={null_acc:.4f} "
                  f"(in [0.35,0.65]) runtime={elapsed:.0f}s (<300s)")
    assert acc >= 0.90
    assert 0.35 <= null_acc <= 0.65
    assert elapsed < 300.0


def test_criterion_4_ablation_directions():
    ds = generate_dataset(variance_contrast_spec(seed=77))
    base = PipelineConfig(gamma=1.0, D=2000, m=200, folds=5, runs=5, reg_c=1.0,
                          seed=13)
    from dataclasses import replace

    acc_herd = cross_validate(ds, base).mean
    acc_unif = cross_validate(ds, replace(base, subsample_method="uniform")).mean
    acc_naive = cross_validate(ds, replace(base, features="naive")).mean
    ok = acc_naive <= 0.65 and acc_herd >= 0.85 and acc_unif <= acc_herd
    report(4, ok, f"naive={acc_naive:.4f} (<=0.65) embedding={acc_herd:.4f} "
                  f"(>=0.85) uniform={acc_unif:.4f} (<=herding)")
    assert acc_naive <= 0.65
    assert acc_herd >= 0.85
    assert acc_unif <= acc_herd


def test_criterion_5_score_decomposition():
    gen = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        d = int(gen.integers(2, 9))
        D = int(gen.integers(16, 256)) * 2
        rmap = sample_frequencies(d, D, float(gen.uniform(0.5, 8)),
                                  int(gen.integers(0, 2**32)))
        model = LinearModel(beta=gen.normal(size=D), bias=float(gen.normal()),
                            rff=rmap, reg_c=1.0)
        s = make_sample(gen.normal(scale=2, size=(int(gen.integers(1, 400)), d)))
        dec = decision(model, mean_embedding(rmap, s))
        mean_score = float(cell_scores(model, s.cells).mean())
        worst = max(worst, abs(dec - mean_score) / (1 + abs(dec)))
    ok = worst <= 1e-9
    report(5, ok, f"max |decision - mean score| / (1+|decision|) = {worst:.2e} (<=1e-9)")
    assert worst <= 1e-9


def test_criterion_6_gradient_correctness():
    gen = np.random.default_rng(606)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        d = int(gen.integers(2, 7))
        D = int(gen.integers(16, 128)) * 2
        rmap = sample_frequencies(d, D, float(gen.uniform(0.5, 4)),
                                  int(gen.integers(0, 2**32)))
        model = LinearModel(beta=gen.normal(size=D), bias=0.0, rff=rmap, reg_c=1.0)
        x = gen.normal(size=d)
        g = score_gradient(model, x)
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (cell_scores(model, (x + e)[None])[0]
                     - cell_scores(model, (x - e)[None])[0]) / (2 * h)
        worst = max(worst, float(np.abs(g - fd).max() / max(np.abs(g).max(), 1e-12)))
    ok = worst <= 1e-5
    report(6, ok, f"max relative FD error = {worst:.2e} (<=1e-5)")
    assert worst <= 1e-5


def test_criterion_7_permutation_invariance(bench_dataset, fixture_pipelines):
    art = fixture_pipelines[0]
    sample = bench_dataset.samples[0]
    base_mu = mean_embedding(art.rmap, sample)
    base_label = 1 if decision(art.model, base_mu) >= 0 else -1
    gen = np.random.default_rng(707)
    worst = 0.0
    labels_stable = True
    for _ in range(50):
        shuffled = make_sample(sample.cells[gen.permutation(sample.n)],
                               sample_id=sample.sample_id)
        mu = mean_embedding(art.rmap, shuffled)
        worst = max(worst, float(np.abs(mu - base_mu).max()))
        label = 1 if decision(art.model, mu) >= 0 else -1
        labels_stable = labels_stable and (label == base_label)
    ok = worst <= 1e-9 and labels_stable
    report(7, ok, f"max elementwise shift = {worst:.2e} (<=1e-9) "
                  f"labels_stable={labels_stable}")
    assert worst <= 1e-9
    assert labels_stable


def test_criterion_8_semantic_retention(fixture_pipelines):
    rs = []
    for seed, art in fixture_pipelines.items():
        region = region_scores(art.model, art.clusters,
                               cell_scores(art.model, art.pooled), art.subs)
        rs.append(pearson(region.centroid_scores, region.average_scores))
    ok = all(r >= 0.5 for r in rs)
    report(8, ok, "pearson(centroid, average) per seed = "
                  + ", ".join(f"{r:.3f}" for r in rs) + " (all >=0.5)")
    assert all(r >= 0.5 for r in rs)


def test_criterion_9_frequency_predictors(bench_dataset, fixture_pipelines):
    from setkernel import frequency_score_predict, train_frequency_model

    art = fixture_pipelines[0]
    y = art.labels
    freqs = region_scores(art.model, art.clusters, cell_scores(art.model, art.pooled),
                          art.subs).frequencies
    folds = stratified_folds(bench_dataset.labels, 5, derive_seed(31, "folds"))
    pooled_scores_correct = {"linear": [], "centroid": [], "average": []}
    for test_idx in folds:
        train_idx = np.setdiff1d(np.arange(bench_dataset.N), test_idx)
        res = solve_hinge(art.feats[train_idx], y[train_idx], reg_c=1.0)
        fold_model = LinearModel(beta=res.w, bias=res.bias, rff=art.rmap, reg_c=1.0)
        region = region_scores(fold_model, art.clusters,
                               cell_scores(fold_model, art.pooled), art.subs)
        cs, avg = region.centroid_scores, region.average_scores
        alpha, a = train_frequency_model(list(freqs[train_idx]), y[train_idx],
                                         reg_c=1.0)
        for i in test_idx:
            truth = y[i]
            lin = 1 if freqs[i] @ alpha + a >= 0 else -1
            cen = 1 if frequency_score_predict(freqs[i], cs) >= 0 else -1
            av = 1 if frequency_score_predict(freqs[i], avg) >= 0 else -1
            pooled_scores_correct["linear"].append(lin == truth)
            pooled_scores_correct["centroid"].append(cen == truth)
            pooled_scores_correct["average"].append(av == truth)
    acc = {k: float(np.mean(v)) for k, v in pooled_scores_correct.items()}
    ok = (all(v >= 0.70 for v in acc.values())
          and abs(acc["centroid"] - acc["linear"]) <= 0.10
          and abs(acc["average"] - acc["linear"]) <= 0.10)
    report(9, ok, f"linear={acc['linear']:.3f} centroid={acc['centroid']:.3f} "
                  f"average={acc['average']:.3f} (all >=0.70, within 10pp of linear)")
    assert all(v >= 0.70 for v in acc.values())
    assert abs(acc["centroid"] - acc["linear"]) <= 0.10
    assert abs(acc["average"] - acc["linear"]) <= 0.10


def test_criterion_10_rank_sum_oracle():
    gen = np.random.default_rng(1010)
    exact_used = True
    exact_matches = True
    for n1 in range(1, 10):
        for n2 in range(1, 11 - n1):
            for _ in range(3):
                a = gen.integers(0, 4, n1).astype(float)
                b = gen.integers(0, 4, n2).astype(float)
                exact_used = exact_used and use_exact_rank_sum(n1, n2)
                exact_matches = exact_matches and (
                    rank_sum_test(a, b) == brute_force_rank_sum_p(a, b)
                )
    null_ok = 0
    for seed in range(100):
        g = np.random.default_rng(seed)
        p = rank_sum_test(g.normal(size=50), g.normal(size=50))
        if p >= 0.01:
            null_ok += 1
    ok = exact_used and exact_matches and null_ok >= 98
    report(10, ok, f"exact_branch_used={exact_used} exact_matches={exact_matches} "
                   f"null p>=0.01 in {null_ok}/100 (>=98)")
    assert exact_used
    assert exact_matches
    assert null_ok >= 98


def test_criterion_11_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_det")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps({
        "sets_per_class": 5, "cells_per_set": 200, "seed": 6,
        "components": [{"mean": [0.0, 0.0], "cov": [1.0, 1.0]},
                       {"mean": [4.0, 0.0], "cov": [1.0, 1.0]}],
        "weights_neg": [0.3, 0.7], "weights_pos": [0.7, 0.3],
    }))
    assert main(["synth", "--spec", str(spec_path), "--out", str(root / "data")]) == 0
    args = ["crossval", "--manifest", str(root / "data" / "manifest.csv"),
            "--D", "256", "--m", "50", "--folds", "5", "--runs", "2", "--seed", "3"]
    assert main(args + ["--out", str(root / "a")]) == 0
    assert main(args + ["--out", str(root / "b")]) == 0
    same_report = ((root / "a" / "report.csv").read_bytes()
                   == (root / "b" / "report.csv").read_bytes())
    same_meta = ((root / "a" / "meta.txt").read_bytes()
                 == (root / "b" / "meta.txt").read_bytes())
    ok = same_report and same_meta
    report(11, ok, f"report_identical={same_report} meta_identical={same_meta}")
    assert same_report
    assert same_meta
