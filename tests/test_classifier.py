import contextlib
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkernel import (
    ConfigError,
    DataError,
    LinearModel,
    ModelFormatError,
    PipelineConfig,
    cross_validate,
    decision,
    load_model,
    mean_embedding,
    predict_label,
    sample_frequencies,
    save_model,
    solve_hinge,
    train,
)
from setkernel.classifier import (
    MODEL_VERSION,
    W_ULPS,
    Pipeline,
    _optimal_bias,
    _within_ulps,
    fit_pipeline,
    stratified_folds,
)
from setkernel.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from setkernel.config import coerce_setting
from setkernel.data import LabeledDataset
from setkernel.synth import benchmark_spec, generate_dataset, spec_from_dict

from conftest import MODEL_V1, make_sample


def predict_probe(tmp_path, model_text):
    """Exit code of `predict` on a two-marker probe sample with this model text."""
    (tmp_path / "bad.txt").write_text(model_text)
    probe = tmp_path / "probe.csv"
    probe.write_text("f0,f1\n0.5,1.5\n")
    return main(["predict", str(probe), "--model", str(tmp_path / "bad.txt"),
                 "--out", str(tmp_path / "p")])


def embeddings_from(X):
    return list(np.atleast_2d(np.asarray(X, dtype=np.float64)))


class TestSolver:
    def test_analytic_two_point_margin(self):
        X = np.zeros((2, 6))
        X[0, 0] = 1.0
        X[1, 0] = -1.0
        y = np.array([1.0, -1.0])
        res = solve_hinge(X, y, reg_c=1e6, tol=1e-10)
        np.testing.assert_allclose(res.w, [1.0, 0, 0, 0, 0, 0], atol=1e-8)
        assert abs(res.bias) <= 1e-8
        margins = y * (X @ res.w + res.bias)
        assert margins.min() >= 1.0 - 1e-8

    def test_matches_reference_solver(self, rng):
        # oracle: libsvm with equivalent per-example C = reg_c / N
        sklearn = pytest.importorskip("sklearn.svm")
        for trial in range(4):
            n, d = 24, 6
            X = rng.normal(size=(n, d))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            y[:2] = (1.0, -1.0)
            X += 0.4 * y[:, None]
            reg_c = float(10.0 ** rng.uniform(-1, 1.5))
            res = solve_hinge(X, y, reg_c=reg_c, tol=1e-10)
            ref = sklearn.SVC(kernel="linear", C=reg_c / n, tol=1e-12).fit(X, y)
            np.testing.assert_allclose(res.w, ref.coef_.ravel(), atol=1e-5)
            assert abs(res.bias - float(ref.intercept_[0])) <= 1e-5

    def test_duplicated_dataset_same_optimum(self, rng):
        X = rng.normal(size=(20, 4))
        y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
        y[:2] = (1.0, -1.0)
        res1 = solve_hinge(X, y, reg_c=2.0, tol=1e-10)
        res2 = solve_hinge(np.vstack([X, X]), np.concatenate([y, y]),
                           reg_c=2.0, tol=1e-10)
        np.testing.assert_allclose(res1.w, res2.w, atol=1e-6)
        assert abs(res1.bias - res2.bias) <= 1e-6

    def test_separable_data_fits_perfectly(self, rng):
        X = rng.normal(size=(30, 5))
        y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
        y[:2] = (1.0, -1.0)
        X[:, 0] += 3.0 * y  # planted margin
        res = solve_hinge(X, y, reg_c=10.0, tol=1e-8)
        pred = np.where(X @ res.w + res.bias < 0, -1.0, 1.0)
        assert np.array_equal(pred, y)

    def test_objective_monotone(self, rng):
        X = rng.normal(size=(40, 6))
        y = np.where(rng.random(40) < 0.5, -1.0, 1.0)
        y[:2] = (1.0, -1.0)
        res = solve_hinge(X, y, reg_c=5.0, tol=1e-10)
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 1e-10)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            solve_hinge(np.ones((3, 2)), np.ones(3))

    def test_nonconvergence_warns_and_returns(self, rng):
        X = rng.normal(size=(50, 4))
        y = np.where(rng.random(50) < 0.5, -1.0, 1.0)
        y[:2] = (1.0, -1.0)
        with pytest.warns(RuntimeWarning, match="duality gap"):
            res = solve_hinge(X, y, reg_c=100.0, tol=1e-14, max_iter=5)
        assert res.n_updates == 5
        assert not res.converged
        assert np.all(np.isfinite(res.w))

    def test_optimal_bias_symmetric_case(self):
        f = np.array([1.0, -1.0])
        y = np.array([1.0, -1.0])
        assert _optimal_bias(f, y) == 0.0


class TestDecision:
    def test_constant_model(self, small_map):
        model = LinearModel(beta=np.zeros(small_map.D), bias=0.5, rff=small_map,
                            reg_c=1.0)
        e = embeddings_from(np.zeros((1, small_map.D)))[0]
        assert decision(model, e) == 0.5
        assert predict_label(model, e) == +1

    def test_linearity(self, small_map, rng):
        beta = rng.normal(size=small_map.D)
        model = LinearModel(beta=beta, bias=0.0, rff=small_map, reg_c=1.0)
        mu = rng.normal(size=small_map.D) * 0.01
        assert decision(model, 2 * mu) == pytest.approx(2 * decision(model, mu), rel=1e-12)

    def test_decision_is_mean_cell_score(self, small_map, rng):
        from setkernel import cell_scores

        beta = rng.normal(size=small_map.D)
        model = LinearModel(beta=beta, bias=0.3, rff=small_map, reg_c=1.0)
        s = make_sample(rng.normal(size=(75, 2)))
        dec = decision(model, mean_embedding(small_map, s))
        mean_score = cell_scores(model, s.cells).mean()
        assert abs(dec - mean_score) <= 1e-9 * (1 + abs(dec))

    def test_dimension_mismatch(self, small_map):
        model = LinearModel(beta=np.zeros(small_map.D), bias=0.0, rff=small_map,
                            reg_c=1.0)
        with pytest.raises(ValueError, match="model expects"):
            decision(model, np.zeros(small_map.D + 2))


class TestTrain:
    def test_training_accuracy_on_separable_embeddings(self, small_map, rng):
        n = 16
        mus = rng.normal(size=(n, small_map.D)) * 0.005
        y = np.where(rng.random(n) < 0.5, -1, 1)
        y[:2] = (1, -1)
        mus[:, 0] += 0.2 * y  # planted margin wide enough to dominate the hinge
        model = train(small_map, embeddings_from(mus), y, reg_c=1e4)
        preds = [predict_label(model, e) for e in embeddings_from(mus)]
        assert np.array_equal(preds, y)

    def test_model_carries_map(self, small_map, rng):
        mus = rng.normal(size=(4, small_map.D)) * 0.01
        model = train(small_map, embeddings_from(mus), [1, -1, 1, -1])
        assert model.rff is small_map


class TestStratifiedFolds:
    def test_every_training_fold_has_both_classes(self):
        labels = [-1] * 7 + [+1] * 5
        folds = stratified_folds(labels, 5, seed=3)
        y = np.asarray(labels)
        all_test = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(all_test, np.arange(12))
        for test_idx in folds:
            train_idx = np.setdiff1d(np.arange(12), test_idx)
            assert set(y[train_idx]) == {-1, +1}
            assert len(test_idx) >= 1

    @given(st.lists(st.sampled_from([-1, +1]), min_size=4, max_size=40)
           .filter(lambda ys: ys.count(-1) >= 2 and ys.count(+1) >= 2),
           st.data(), st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_training_partition_holds_both_classes(self, labels, data, seed):
        # each class takes consecutive deals, so with >= 2 samples it spans two
        # folds, and no test fold holds all of it
        folds = data.draw(st.integers(2, len(labels)))
        out = stratified_folds(labels, folds, seed)
        np.testing.assert_array_equal(np.sort(np.concatenate(out)), np.arange(len(labels)))
        for test_idx in out:
            assert set(np.delete(labels, test_idx)) == {-1, +1}

    def test_folds_exceeding_n(self):
        with pytest.raises(ConfigError, match="folds exceeds sample count"):
            stratified_folds([-1, 1, -1, 1], 5, seed=0)

    def test_singleton_class_rejected(self):
        with pytest.raises(ConfigError, match="both classes"):
            stratified_folds([-1, 1, 1, 1, 1], 2, seed=0)

    def test_deterministic_given_seed(self):
        labels = [-1] * 6 + [+1] * 6
        a = stratified_folds(labels, 3, seed=11)
        b = stratified_folds(labels, 3, seed=11)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)


def constant_dataset(small=False):
    """Each class is a single repeated cell, so embeddings separate exactly."""
    n_per = 4
    samples, labels = [], []
    for i in range(n_per):
        samples.append(make_sample([[0.0, 0.0]] * 3, f"a{i}"))
        labels.append(-1)
        samples.append(make_sample([[2.5, -1.0]] * 3, f"b{i}"))
        labels.append(+1)
    return LabeledDataset(samples=tuple(samples), labels=tuple(labels),
                          label_names={-1: "a", +1: "b"})


class TestCrossValidate:
    def test_identical_class_embeddings_are_perfect(self):
        ds = constant_dataset()
        cfg = PipelineConfig(D=64, m=None, folds=4, runs=2, seed=1)
        rep = cross_validate(ds, cfg)
        assert rep.mean == 1.0
        assert rep.std == 0.0

    def test_folds_exceeding_n(self):
        ds = constant_dataset()
        with pytest.raises(ConfigError, match="folds exceeds sample count"):
            cross_validate(ds, PipelineConfig(D=64, folds=9, seed=1))

    def test_report_shape_and_ranges(self):
        ds = constant_dataset()
        rep = cross_validate(ds, PipelineConfig(D=64, m=None, folds=4, runs=3, seed=5))
        assert len(rep.accuracies) == 3
        assert all(len(run) == 4 for run in rep.accuracies)
        assert all(0.0 <= a <= 1.0 for run in rep.accuracies for a in run)

    def test_permuted_labels_near_chance(self):
        # null-distribution oracle at reduced scale: 20 label permutations
        spec = spec_from_dict({
            "sets_per_class": 16, "cells_per_set": 120, "seed": 5,
            "components": [{"mean": [0.0, 0.0], "cov": [1.0, 1.0]},
                           {"mean": [4.0, 0.0], "cov": [1.0, 1.0]}],
            "weights_neg": [0.3, 0.7], "weights_pos": [0.7, 0.3],
        })
        ds = generate_dataset(spec)
        cfg = PipelineConfig(D=200, m=30, folds=4, runs=2, seed=2)
        gen = np.random.default_rng(0)
        means = []
        for _ in range(20):
            perm = gen.permutation(ds.N)
            permuted = LabeledDataset(
                samples=ds.samples,
                labels=tuple(ds.labels[i] for i in perm),
                label_names=ds.label_names,
            )
            means.append(cross_validate(permuted, cfg).mean)
        assert 0.35 <= np.mean(means) <= 0.65
        assert np.std(means) <= 0.15

    def test_seed_sensitivity_bound(self):
        spec = benchmark_spec(seed=7, sets_per_class=8, cells_per_set=150)
        ds = generate_dataset(spec)
        means = []
        for seed in range(5):
            cfg = PipelineConfig(D=300, m=40, folds=4, runs=1, seed=seed)
            means.append(cross_validate(ds, cfg).mean)
        assert np.std(means) <= 0.05

    def test_standardize_path_runs(self):
        ds = constant_dataset()
        cfg = PipelineConfig(D=64, m=None, folds=4, runs=1, seed=1,
                             preprocessing="standardize")
        rep = cross_validate(ds, cfg)
        assert rep.mean == 1.0


class TestModelIO:
    def _trained_model(self, rng, preprocessing="none"):
        spec = benchmark_spec(seed=9, sets_per_class=3, cells_per_set=50)
        ds = generate_dataset(spec)
        cfg = PipelineConfig(D=96, m=20, seed=4, preprocessing=preprocessing)
        return fit_pipeline(ds, cfg)

    def test_roundtrip_decisions_identical(self, tmp_path, rng):
        model = self._trained_model(rng)
        save_model(model, tmp_path / "m.txt")
        back = load_model(tmp_path / "m.txt")
        np.testing.assert_array_equal(back.beta, model.beta)
        np.testing.assert_array_equal(back.rff.W, model.rff.W)
        assert back.bias == model.bias
        for _ in range(100):
            mu = rng.normal(size=model.rff.D) * 0.01
            assert decision(back, mu) == decision(model, mu)

    def test_roundtrip_with_standardizer(self, tmp_path, rng):
        model = self._trained_model(rng, preprocessing="standardize")
        save_model(model, tmp_path / "m.txt")
        back = load_model(tmp_path / "m.txt")
        std1 = model.train_meta["standardizer"]
        std2 = back.train_meta["standardizer"]
        np.testing.assert_array_equal(std1.mean, std2.mean)
        np.testing.assert_array_equal(std1.std, std2.std)

    @pytest.mark.parametrize("preprocessing", ["none", "standardize"])
    @pytest.mark.parametrize("converged", [True, False])
    def test_solver_fields_roundtrip(self, tmp_path, rng, preprocessing, converged):
        model = self._trained_model(rng, preprocessing=preprocessing)
        model.train_meta["solver_converged"] = converged
        save_model(model, tmp_path / "m.txt")
        text = (tmp_path / "m.txt").read_text()
        assert f"\nsolver_converged {str(converged).lower()}\nEND\n" in text
        back = load_model(tmp_path / "m.txt").train_meta
        assert back["solver_gap"] == model.train_meta["solver_gap"]
        assert back["solver_converged"] is converged

    def test_files_without_solver_fields_load(self, tmp_path, rng):
        assert "solver_gap" not in load_model(MODEL_V1).train_meta
        save_model(load_model(MODEL_V1), tmp_path / "v2.txt")
        assert "solver_gap" not in (tmp_path / "v2.txt").read_text()
        assert "solver_gap" not in load_model(tmp_path / "v2.txt").train_meta
        save_model(self._trained_model(rng), tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text().splitlines()
        (tmp_path / "old.txt").write_text("\n".join(lines[:-3] + lines[-1:]) + "\n")
        assert "solver_gap" not in load_model(tmp_path / "old.txt").train_meta

    def test_bad_solver_converged_is_format_error(self, tmp_path, rng):
        save_model(self._trained_model(rng), tmp_path / "m.txt")
        text = (tmp_path / "m.txt").read_text()
        (tmp_path / "bad.txt").write_text(text.replace("solver_converged true",
                                                       "solver_converged yes"))
        with pytest.raises(ModelFormatError, match="solver_converged must be true or false"):
            load_model(tmp_path / "bad.txt")

    @pytest.mark.parametrize("preprocessing", ["none", "standardize"])
    @pytest.mark.parametrize("solver", [True, False])
    def test_lines_follow_the_declared_order(self, tmp_path, rng, preprocessing, solver):
        model = self._trained_model(rng, preprocessing=preprocessing)
        if not solver:
            del model.train_meta["solver_gap"], model.train_meta["solver_converged"]
        save_model(model, tmp_path / "m.txt")
        words = [ln.split(" ", 1)[0] for ln in (tmp_path / "m.txt").read_text().splitlines()]
        assert words == [
            "setkernel-model", "KERNEL", "gamma", "D", "seed", "generator", "d",
            "LINEAR", "beta", "bias",
            "META", "label_neg", "label_pos", "preprocessing", "m", "subsample_method", "seed",
            "reg_c", "marker_names",
            *(["standardizer_mean", "standardizer_std"] * (preprocessing == "standardize")),
            *(["solver_gap", "solver_converged"] * solver),
            "END"]

    @pytest.mark.parametrize("after", ["junk", "solver_gap 1", "standardizer_mean 1 2", "END"])
    def test_lines_after_end_are_not_read(self, tmp_path, rng, after):
        save_model(self._trained_model(rng, preprocessing="standardize"), tmp_path / "m.txt")
        text = (tmp_path / "m.txt").read_text()
        (tmp_path / "tail.txt").write_text(text + after + "\n")
        save_model(load_model(tmp_path / "tail.txt"), tmp_path / "back.txt")
        assert (tmp_path / "back.txt").read_text() == text

    @pytest.mark.parametrize("edit", ["solver_before_standardizer", "std_without_mean",
                                      "v2_with_w"])
    def test_lines_out_of_order_exit_3(self, tmp_path, rng, capsys, edit):
        save_model(self._trained_model(rng, preprocessing="standardize"), tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("standardizer_mean "))
        if edit == "solver_before_standardizer":
            lines[i:i + 4] = lines[i + 2:i + 4] + lines[i:i + 2]
        elif edit == "std_without_mean":
            del lines[i]
        else:
            d = lines.index("d 2")
            lines[d:d + 1] = ["W", "1 2", "3 4"]
        assert predict_probe(tmp_path, "\n".join(lines) + "\n") == EXIT_DATA
        err = capsys.readouterr().err
        assert str(tmp_path / "bad.txt") in err and len(err.strip().splitlines()) == 1

    def test_truncated_file_names_missing_section(self, tmp_path, rng):
        model = self._trained_model(rng)
        save_model(model, tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text().splitlines()
        cut = next(i for i, ln in enumerate(lines) if ln == "LINEAR")
        (tmp_path / "cut.txt").write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ModelFormatError, match="LINEAR"):
            load_model(tmp_path / "cut.txt")

    def test_d_line_disagreeing_with_w_is_format_error(self, tmp_path, capsys):
        text = MODEL_V1.read_text()
        assert "\nD 64\n" in text
        assert predict_probe(tmp_path, text.replace("\nD 64\n", "\nD 66\n", 1)) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(tmp_path / "bad.txt") in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("line, edited, message", [
        ("D 64", "D 66", "beta has length 64, D=66"),
        ("d 2", "d 3", "d=3 disagrees with marker_names"),
    ])
    def test_v2_kernel_line_disagreeing_is_format_error(self, tmp_path, capsys, line,
                                                        edited, message):
        # Both are checked before W is drawn, so a corrupted d or D sizes no array.
        save_model(load_model(MODEL_V1), tmp_path / "v2.txt")
        text = (tmp_path / "v2.txt").read_text()
        assert f"\n{line}\n" in text
        assert predict_probe(tmp_path, text.replace(f"\n{line}\n", f"\n{edited}\n", 1)) \
            == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_unknown_version_rejected(self, tmp_path, rng):
        model = self._trained_model(rng)
        save_model(model, tmp_path / "m.txt")
        text = (tmp_path / "m.txt").read_text()
        current = f"setkernel-model {MODEL_VERSION}\n"
        assert text.startswith(current)
        (tmp_path / "v9.txt").write_text(text.replace(current, "setkernel-model 9\n", 1))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(tmp_path / "v9.txt")

    def test_not_a_model_file(self, tmp_path):
        (tmp_path / "junk.txt").write_text("hello\nworld\n")
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "junk.txt")

    def test_dimension_mismatch_on_apply(self, tmp_path, rng):
        from setkernel.classifier import apply_model

        model = self._trained_model(rng)
        bad = make_sample(rng.normal(size=(4, 3)))
        with pytest.raises(DataError, match="model expects"):
            apply_model(model, bad)

    @pytest.mark.parametrize("preprocessing", ["none", "standardize", "arcsinh:3"])
    def test_apply_model_survives_roundtrip(self, tmp_path, rng, preprocessing):
        from setkernel.classifier import apply_model

        model = self._trained_model(rng, preprocessing=preprocessing)
        save_model(model, tmp_path / "m.txt")
        back = load_model(tmp_path / "m.txt")
        sample = make_sample(rng.normal(size=(60, 2)), "probe")
        assert apply_model(back, sample) == apply_model(model, sample)

    def test_apply_model_standardize_matches_manual(self, rng):
        from setkernel import apply_standardizer, herd, mean_embedding, subset
        from setkernel.classifier import apply_model

        model = self._trained_model(rng, preprocessing="standardize")
        sample = make_sample(rng.normal(size=(60, 2)), "probe")
        prepped = apply_standardizer(model.train_meta["standardizer"], sample)
        sub = subset(prepped, herd(model.rff, prepped, 20))
        manual = decision(model, mean_embedding(model.rff, sub))
        assert apply_model(model, sample) == pytest.approx(manual, abs=1e-12)


class TestModelV1:
    """Version-1 files stored W; every entry must be within W_ULPS of the draw
    that their seed regenerates, and the model keeps the stored W."""

    def test_v1_and_v2_predict_byte_identical(self, tmp_path):
        from setkernel.synth import generate_files

        manifest = generate_files(benchmark_spec(seed=9, sets_per_class=3, cells_per_set=50),
                                  tmp_path / "data")
        save_model(load_model(MODEL_V1), tmp_path / "v2.txt")
        v2_text = (tmp_path / "v2.txt").read_text()
        assert v2_text.startswith("setkernel-model 2\n") and "\nW\n" not in v2_text
        assert len(v2_text) < len(MODEL_V1.read_text())
        np.testing.assert_array_equal(load_model(tmp_path / "v2.txt").rff.W,
                                      load_model(MODEL_V1).rff.W)
        outputs = []
        for name, path in (("p1", MODEL_V1), ("p2", tmp_path / "v2.txt")):
            assert main(["predict", "--manifest", str(manifest), "--model", str(path),
                         "--out", str(tmp_path / name)]) == EXIT_OK
            outputs.append((tmp_path / name / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("edit", ["three_ulps", "column_dropped"])
    def test_w_not_drawn_from_seed_exits_3(self, tmp_path, capsys, edit):
        lines = MODEL_V1.read_text().splitlines()
        row = lines.index("W") + 1
        values = lines[row].split()
        if edit == "three_ulps":
            value = float(values[0])
            for _ in range(W_ULPS + 1):
                value = np.nextafter(value, np.inf)
            values[0] = format(value, ".17g")
            lines[row] = " ".join(values)
        else:
            lines[row:row + 2] = [" ".join(ln.split()[:-1]) for ln in lines[row:row + 2]]
        assert lines[row + 2] == "LINEAR"
        assert predict_probe(tmp_path, "\n".join(lines) + "\n") == EXIT_DATA
        err = capsys.readouterr().err
        assert "differs from the W that seed" in err and str(tmp_path / "bad.txt") in err
        assert len(err.strip().splitlines()) == 1

    def test_w_within_two_ulps_loads_with_the_stored_w(self, tmp_path):
        lines = MODEL_V1.read_text().splitlines()
        row = lines.index("W") + 1
        values = lines[row].split()
        values[0] = format(np.nextafter(np.nextafter(float(values[0]), -np.inf), -np.inf),
                           ".17g")
        lines[row] = " ".join(values)
        (tmp_path / "near.txt").write_text("\n".join(lines) + "\n")
        model = load_model(tmp_path / "near.txt")
        assert model.rff.W[0, 0] == float(values[0]) != load_model(MODEL_V1).rff.W[0, 0]
        np.testing.assert_array_equal(model.rff.W[:, 1:], load_model(MODEL_V1).rff.W[:, 1:])
        with pytest.raises(ValueError, match="not the draw of its seed"):
            save_model(model, tmp_path / "v2.txt")

    def test_v1_file_written_at_a_lower_cpu_level_loads(self, tmp_path):
        # gaussian_draws takes a float64 log, which numpy dispatches to AVX-512 where
        # the CPU has it; without AVX-512 a few entries of W round 1-2 ulps apart.
        # A subprocess writes a version-1 file at the lower level; this process
        # loads it at its own. Only features this CPU has are disabled, so a CPU
        # without AVX-512 compares the one level it has.
        from numpy._core._multiarray_umath import __cpu_features__

        import setkernel

        disabled = [f for f in ("AVX512_SPR", "AVX512_ICL", "X86_V4")
                    if __cpu_features__.get(f)]
        writer = textwrap.dedent("""
            import sys
            import numpy as np
            from numpy._core._multiarray_umath import __cpu_features__
            from setkernel import LinearModel, sample_frequencies, save_model
            assert not any(__cpu_features__[f] for f in sys.argv[3:])
            rmap = sample_frequencies(30, 2000, 1.0, 424242)
            beta = np.random.default_rng(0).normal(size=rmap.D)
            save_model(LinearModel(beta=beta, bias=0.5, rff=rmap, reg_c=1.0), sys.argv[1])
            np.save(sys.argv[2], rmap.W)
        """)
        src = str(Path(setkernel.__file__).resolve().parents[1])
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", writer, str(tmp_path / "v2.txt"),
                        str(tmp_path / "w.npy"), *disabled], env=env, check=True)
        stored = np.load(tmp_path / "w.npy")
        rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in stored)
        v2 = (tmp_path / "v2.txt").read_text()
        assert v2.startswith("setkernel-model 2\n") and "\nd 30\nLINEAR\n" in v2
        v1 = v2.replace("setkernel-model 2\n", "setkernel-model 1\n").replace(
            "\nd 30\nLINEAR\n", f"\nW\n{rows}\nLINEAR\n")
        (tmp_path / "v1.txt").write_text(v1)
        native = sample_frequencies(30, 2000, 1.0, 424242).W
        assert _within_ulps(stored, native, W_ULPS)
        model = load_model(tmp_path / "v1.txt")
        assert model.rff.W.tobytes() == stored.tobytes()
        np.testing.assert_array_equal(model.beta, load_model(tmp_path / "v2.txt").beta)

    def test_save_refuses_w_not_drawn_from_seed(self, small_map, tmp_path):
        from setkernel import RffMap

        rmap = RffMap(W=small_map.W * 2.0, gamma=small_map.gamma, D=small_map.D,
                      seed=small_map.seed, scale=small_map.scale)
        model = LinearModel(beta=np.ones(rmap.D), bias=0.0, rff=rmap, reg_c=1.0)
        with pytest.raises(ValueError, match="not the draw of its seed"):
            save_model(model, tmp_path / "m.txt")
        assert not (tmp_path / "m.txt").exists()


class TestSettingsRoundTrip:
    """PipelineConfig's strings parse back to it, and a model file gives back
    the settings that trained it."""

    @pytest.mark.parametrize("values, message", [
        ({"folds": 1}, "folds must be >= 2"),
        ({"D": 3}, "D must be even"),
        ({"preprocessing": "arcsinh:0"}, "cofactor must be positive"),
        ({"preprocessing": "arcsinh:inf"}, "cofactor must be positive and finite, got inf"),
    ])
    def test_an_invalid_config_cannot_be_built(self, values, message):
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(**values)

    @pytest.mark.parametrize("cfg", [
        PipelineConfig(),
        PipelineConfig(gamma=0.1, D=64, m=None, folds=3, runs=2, reg_c=2.5, seed=2 ** 63,
                       subsample_method="uniform", preprocessing="arcsinh:5",
                       clusters_C=4, features="naive"),
        PipelineConfig(gamma=1 / 3, reg_c=1e-7, m=1, preprocessing="standardize"),
    ])
    def test_every_field_parses_back(self, cfg):
        for key, text in cfg.as_dict().items():
            assert coerce_setting(key, text) == getattr(cfg, key), key

    @pytest.mark.parametrize("preprocessing", ["none", "standardize", "arcsinh:5"])
    @pytest.mark.parametrize("m", [None, 5])
    @pytest.mark.parametrize("method", ["herding", "uniform"])
    def test_model_file_keeps_the_trained_settings(self, tmp_path, preprocessing, m, method):
        ds = generate_dataset(benchmark_spec(seed=3, sets_per_class=3, cells_per_set=12))
        cfg = PipelineConfig(gamma=2.5, D=8, m=m, reg_c=0.75, seed=11,
                             subsample_method=method, preprocessing=preprocessing)
        save_model(fit_pipeline(ds, cfg), tmp_path / "m.txt")
        back = Pipeline.from_model(load_model(tmp_path / "m.txt")).cfg
        for key in ("preprocessing", "m", "subsample_method", "seed", "gamma", "D", "reg_c"):
            assert getattr(back, key) == getattr(cfg, key), key

    @pytest.mark.parametrize("m", [None, 5])
    def test_model_settings_keep_their_types(self, tmp_path, m):
        ds = generate_dataset(benchmark_spec(seed=3, sets_per_class=3, cells_per_set=12))
        cfg = PipelineConfig(gamma=2.5, D=8, m=m, seed=11, preprocessing="arcsinh:5")
        model = fit_pipeline(ds, cfg)
        save_model(model, tmp_path / "m.txt")
        for meta in (model.train_meta, load_model(tmp_path / "m.txt").train_meta):
            assert meta["m"] == m and type(meta["m"]) is type(m)
            assert meta["seed"] == 11 and type(meta["seed"]) is int
            assert meta["marker_names"] == ("f0", "f1") and type(meta["marker_names"]) is tuple
            assert (meta["preprocessing"], meta["subsample_method"]) == ("arcsinh:5", "herding")

    def test_library_model_writes_the_meta_defaults(self, small_map, tmp_path):
        model = train(small_map, embeddings_from(np.eye(2, small_map.D)), [-1, 1])
        save_model(model, tmp_path / "m.txt")
        text = (tmp_path / "m.txt").read_text()
        assert ("\nMETA\nlabel_neg -1\nlabel_pos +1\npreprocessing none\nm all\n"
                "subsample_method herding\nseed 0\nreg_c 1\nmarker_names \n") in text


# Values a fuzzed model line may take. Free text has at most four characters, so
# a fuzzed d or D sizes a W of at most 1e4 x 5e3 values.
_model_value = st.one_of(
    st.sampled_from(["", "0", "-1", "2", "3", "65", "nan", "inf", "-inf", "1e400", "0x1p3",
                     "all", "herding", "uniform", "none", "standardize", "arcsinh:5",
                     "arcsinh:-1", "arcsinh:x", "f0", "f1,f0", "f0,f1,f2", "1 2", "END"]),
    st.text(max_size=4))
_model_edit = st.tuples(st.sampled_from(["value", "line", "delete", "duplicate", "swap"]),
                        st.integers(0, 1000), st.integers(0, 1000), _model_value)


def _edited(text, edits):
    lines = text.splitlines()
    for kind, i, j, value in edits:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if kind == "value":
            lines[i] = lines[i].split(" ", 1)[0] + " " + value
        elif kind == "line":
            lines[i] = value
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


class TestModelFuzz:
    """Any mutated model file loads or raises a ModelFormatError; `predict` under
    it exits with a documented code and, on failure, one line, never a traceback."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("model_fuzz")
        save_model(load_model(MODEL_V1), work / "v2.txt")
        rng = np.random.default_rng(3)
        # 30 cells: with the model's m=20 herding runs, and a fuzzed small m scans
        np.savetxt(work / "probe.csv", rng.normal(size=(30, 2)), delimiter=",",
                   header="f0,f1", comments="")
        return work

    @settings(max_examples=300, deadline=None)
    @given(version=st.sampled_from(["v1", "v2"]),
           edits=st.lists(_model_edit, min_size=1, max_size=3),
           tail=st.binary(max_size=4))
    def test_mutated_model(self, work, version, edits, tail):
        base = MODEL_V1 if version == "v1" else work / "v2.txt"
        path = work / "model.txt"
        path.write_bytes(_edited(base.read_text(), edits).encode("utf-8") + tail)
        try:
            load_model(path)
        except ModelFormatError as e:
            assert str(path) in str(e) and "\n" not in str(e)
            loaded = False
        else:
            loaded = True
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["predict", "--model", str(path), str(work / "probe.csv"),
                         "--out", str(work / "o")])
        message = err.getvalue()
        if not loaded:
            assert code == EXIT_DATA and str(path) in message
        assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERICAL)
        if code != EXIT_OK:
            assert message.startswith("error: ") and message.count("\n") == 1

    def test_huge_d_exits_3_without_drawing_w(self, work, capsys):
        text = (work / "v2.txt").read_text()
        text = text.replace("\nd 2\n", "\nd 1000000000\n").replace(
            "\nmarker_names f0,f1\n", "\nmarker_names \n")
        path = work / "huge.txt"
        path.write_text(text)
        code = main(["predict", "--model", str(path), str(work / "probe.csv"),
                     "--out", str(work / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA and err.count("\n") == 1
        assert err.startswith(f"error: {path}: d=1000000000 and D=64 need a W of")

    @pytest.mark.parametrize("old, new, message", [
        ("m 20", "m 0", "m must be positive"),
        ("m 20", "m x", "m must be an integer or 'all', got 'x'"),
        ("preprocessing none", "preprocessing arcsinh:-1", "cofactor must be positive"),
        ("preprocessing none", "preprocessing standardize", "without a standardizer"),
        ("subsample_method herding", "subsample_method greedy", "subsample_method must be"),
        ("reg_c 1", "reg_c nan", "reg_c must be positive"),
        ("marker_names f0,f1", "marker_names f0,f1\nstandardizer_mean 0 0\nstandardizer_std 1 1",
         "preprocessing none with a standardizer"),
        ("preprocessing none\nm 20\nsubsample_method herding\nseed 4\nreg_c 1\n"
         "marker_names f0,f1",
         "preprocessing standardize\nm 20\nsubsample_method herding\nseed 4\nreg_c 1\n"
         "marker_names f0,f1\nstandardizer_mean 0\nstandardizer_std 1",
         "standardizer has d=1, model d=2"),
        ("preprocessing none\nm 20\nsubsample_method herding\nseed 4\nreg_c 1\n"
         "marker_names f0,f1",
         "preprocessing standardize\nm 20\nsubsample_method herding\nseed 4\nreg_c 1\n"
         "marker_names f0,f1\nstandardizer_mean nan 0\nstandardizer_std 1 1",
         "mean entries must be finite"),
        ("preprocessing none\nm 20\nsubsample_method herding\nseed 4\nreg_c 1\n"
         "marker_names f0,f1",
         "preprocessing standardize\nm 20\nsubsample_method herding\nseed 4\nreg_c 1\n"
         "marker_names f0,f1\nstandardizer_mean 0 0\nstandardizer_std inf 1",
         "std entries must be positive and finite"),
    ])
    def test_bad_pipeline_setting_exits_3(self, work, capsys, old, new, message):
        text = (work / "v2.txt").read_text()
        assert f"\n{old}\n" in text
        path = work / "bad.txt"
        path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
        code = main(["predict", "--model", str(path), str(work / "probe.csv"),
                     "--out", str(work / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA and err.count("\n") == 1
        assert str(path) in err and message in err
