import contextlib
import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkernel import LinearModel, save_model, sample_frequencies
from setkernel.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from setkernel.config import build_config, parse_config_file
from setkernel.data import load_sample_set, write_manifest
from setkernel.errors import ConfigError

from conftest import MODEL_V1


@pytest.fixture(scope="module")
def separable_dir(tmp_path_factory):
    """Small, trivially separable dataset generated through the CLI."""
    root = tmp_path_factory.mktemp("cli_data")
    spec = {
        "sets_per_class": 4, "cells_per_set": 50, "seed": 3,
        "components": [{"mean": [0.0, 0.0], "cov": [1.0, 1.0]},
                       {"mean": [8.0, 8.0], "cov": [1.0, 1.0]}],
        "weights_neg": [1.0, 0.0], "weights_pos": [0.0, 1.0],
    }
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    data_dir = root / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == EXIT_OK
    return root


def manifest_of(separable_dir):
    return str(separable_dir / "data" / "manifest.csv")


FAST = ["--D", "128", "--m", "20", "--seed", "1"]


class TestSynthCommand:
    def test_outputs_exist(self, separable_dir):
        data = separable_dir / "data"
        assert (data / "manifest.csv").exists()
        assert (data / "meta.txt").exists()
        assert len(list((data / "cells").iterdir())) == 8

    def test_byte_identical_rerun(self, separable_dir, tmp_path):
        spec_path = separable_dir / "spec.json"
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")]) == 0
        a = (separable_dir / "data" / "manifest.csv").read_bytes()
        b = (tmp_path / "x" / "manifest.csv").read_bytes()
        assert a == b

    def test_bad_spec_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets_per_class": 2}))
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestCrossvalCommand:
    def test_separable_summary_line(self, separable_dir, tmp_path, capsys):
        code = main(["crossval", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "cv"), "--folds", "4", "--runs", "2"] + FAST)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "100.00 ± 0.00" in out
        report = (tmp_path / "cv" / "report.csv").read_text()
        assert report.splitlines()[1] == "run,fold,accuracy"
        assert report.startswith("# config:")

    def test_folds_exceeding_samples_exit_2(self, separable_dir, tmp_path, capsys):
        code = main(["crossval", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "cv"), "--folds", "50"] + FAST)
        assert code == EXIT_CONFIG
        assert "folds exceeds sample count" in capsys.readouterr().err

    def test_byte_identical_reports(self, separable_dir, tmp_path):
        args = ["crossval", "--manifest", manifest_of(separable_dir),
                "--folds", "4", "--runs", "2"] + FAST
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a" / "report.csv").read_bytes() == \
            (tmp_path / "b" / "report.csv").read_bytes()
        assert (tmp_path / "a" / "meta.txt").read_bytes() == \
            (tmp_path / "b" / "meta.txt").read_bytes()

    def test_permuted_labels_flag(self, separable_dir, tmp_path, capsys):
        code = main(["crossval", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "cv"), "--folds", "4", "--runs", "1",
                     "--permute-labels", "7"] + FAST)
        assert code == EXIT_OK

    def test_sweep_writes_table(self, separable_dir, tmp_path):
        code = main(["crossval", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "sw"), "--folds", "4", "--runs", "1",
                     "--sweep-gamma", "0.5,2", "--sweep-reg-c", "0.1,1"] + FAST)
        assert code == EXIT_OK
        sweep = (tmp_path / "sw" / "sweep.csv").read_text()
        assert len([ln for ln in sweep.splitlines() if ln and not ln.startswith("#")]) == 5

    @pytest.mark.parametrize("sweep, message", [
        (["--sweep-gamma", "1.0000001,1.0000002"],
         "--sweep-gamma: 1.0000001 and 1.0000002 both name report_gamma1_c1.csv"),
        (["--sweep-gamma", "1,1"], "--sweep-gamma: 1 and 1 both name report_gamma1_c1.csv"),
        (["--sweep-gamma", "0.5,2", "--sweep-reg-c", "0.1, 0.10000001"],
         "--sweep-reg-c: 0.1 and 0.10000001 both name report_gamma0.5_c0.1.csv"),
    ])
    def test_sweep_points_naming_one_report_exit_2(self, separable_dir, tmp_path, capsys,
                                                   sweep, message):
        out = tmp_path / "sw"
        code = main(["crossval", "--manifest", manifest_of(separable_dir), "--out", str(out),
                     "--folds", "4", "--runs", "1"] + FAST + sweep)
        assert code == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_unreadable_manifest_exit_3(self, tmp_path):
        code = main(["crossval", "--manifest", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "cv")] + FAST)
        assert code == EXIT_DATA


class TestTrainPredict:
    def test_train_then_predict_all_correct(self, separable_dir, tmp_path):
        model_path = tmp_path / "model.txt"
        assert main(["train", "--manifest", manifest_of(separable_dir),
                     "--model", str(model_path), "--out", str(tmp_path / "t")] + FAST) == 0
        assert main(["predict", "--manifest", manifest_of(separable_dir),
                     "--model", str(model_path), "--out", str(tmp_path / "p")]) == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "p" / "predictions.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 8
        for sample_id, dec, label in rows:
            assert sample_id.startswith(label)  # names are neg_*/pos_*
            assert (float(dec) < 0) == (label == "neg")

    def test_predict_twice_byte_identical(self, separable_dir, tmp_path):
        model_path = tmp_path / "model.txt"
        main(["train", "--manifest", manifest_of(separable_dir),
              "--model", str(model_path), "--out", str(tmp_path / "t")] + FAST)
        for sub in ("p1", "p2"):
            assert main(["predict", "--manifest", manifest_of(separable_dir),
                         "--model", str(model_path), "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "p1" / "predictions.csv").read_bytes() == \
            (tmp_path / "p2" / "predictions.csv").read_bytes()

    def test_predict_dimension_mismatch_exit_3(self, separable_dir, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        main(["train", "--manifest", manifest_of(separable_dir),
              "--model", str(model_path), "--out", str(tmp_path / "t")] + FAST)
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,f2\n1.0,2.0,3.0\n")
        code = main(["predict", str(bad), "--model", str(model_path),
                     "--out", str(tmp_path / "p")])
        assert code == EXIT_DATA

    def test_predict_single_sample_csv(self, separable_dir, tmp_path):
        model_path = tmp_path / "model.txt"
        main(["train", "--manifest", manifest_of(separable_dir),
              "--model", str(model_path), "--out", str(tmp_path / "t")] + FAST)
        sample = next((separable_dir / "data" / "cells").glob("pos_*.csv"))
        assert main(["predict", str(sample), "--model", str(model_path),
                     "--out", str(tmp_path / "p")]) == 0
        text = (tmp_path / "p" / "predictions.csv").read_text()
        assert "pos" in text.splitlines()[-1]

    def test_predict_realigns_marker_order(self, separable_dir, tmp_path):
        model_path = tmp_path / "model.txt"
        main(["train", "--manifest", manifest_of(separable_dir),
              "--model", str(model_path), "--out", str(tmp_path / "t")] + FAST)
        src = next((separable_dir / "data" / "cells").glob("pos_*.csv"))
        sample = load_sample_set(src)
        from setkernel import SampleSet, save_sample_set

        swapped = tmp_path / "swapped.csv"
        save_sample_set(SampleSet(cells=sample.cells[:, [1, 0]],
                                  sample_id="swapped", marker_names=("f1", "f0")),
                        swapped)
        assert main(["predict", str(src), "--model", str(model_path),
                     "--out", str(tmp_path / "orig")]) == 0
        assert main(["predict", str(swapped), "--model", str(model_path),
                     "--out", str(tmp_path / "swap")]) == 0
        orig = (tmp_path / "orig" / "predictions.csv").read_text().splitlines()[-1]
        swap = (tmp_path / "swap" / "predictions.csv").read_text().splitlines()[-1]
        assert orig.split(",")[1:] == swap.split(",")[1:]

    def test_predict_aligns_positional_files_to_the_first(self, tmp_path):
        # a model without marker_names: b.csv holds a.csv's cells under the
        # header f1,f0, and c.csv holds b.csv's cells with the columns f0,f1
        model = tmp_path / "model.txt"
        model.write_text(MODEL_V1.read_text().replace("marker_names f0,f1", "marker_names "))
        cells = np.random.default_rng(2).normal(size=(30, 2))
        for name, header, columns in [("a", "f0,f1", [0, 1]), ("b", "f1,f0", [0, 1]),
                                      ("c", "f0,f1", [1, 0])]:
            np.savetxt(tmp_path / f"{name}.csv", cells[:, columns], delimiter=",",
                       header=header, comments="")
        assert main(["predict", "--model", str(model), "--out", str(tmp_path / "p")]
                    + [str(tmp_path / f"{name}.csv") for name in "abc"]) == EXIT_OK
        a, b, c = data_rows(tmp_path / "p" / "predictions.csv")
        assert b[1:] == c[1:] and b[1:] != a[1:]

    def test_predict_aligns_positional_files_to_the_first_manifest_sample(self, tmp_path):
        # a model without marker_names; the manifest's first sample a.csv has
        # the header f1,f0, and the positional b.csv holds a.csv's cells under f0,f1
        model = tmp_path / "model.txt"
        model.write_text(MODEL_V1.read_text().replace("marker_names f0,f1", "marker_names "))
        rng = np.random.default_rng(3)
        cells = rng.normal(size=(30, 2))
        for name, header, data in [("a", "f1,f0", cells), ("b", "f0,f1", cells[:, [1, 0]]),
                                   ("c", "f0,f1", rng.normal(size=(30, 2)))]:
            np.savetxt(tmp_path / f"{name}.csv", data, delimiter=",", header=header,
                       comments="")
        (tmp_path / "m.csv").write_text("sample_id,path,label\na,a.csv,x\nc,c.csv,y\n")
        assert main(["predict", "--model", str(model), "--manifest", str(tmp_path / "m.csv"),
                     str(tmp_path / "b.csv"), "--out", str(tmp_path / "p")]) == EXIT_OK
        a, c, b = data_rows(tmp_path / "p" / "predictions.csv")
        assert [a[0], c[0], b[0]] == ["a", "c", "b"] and b[1:] == a[1:]
        # alone, b.csv keeps its own column order and decides differently
        assert main(["predict", "--model", str(model), str(tmp_path / "b.csv"),
                     "--out", str(tmp_path / "alone")]) == EXIT_OK
        assert data_rows(tmp_path / "alone" / "predictions.csv")[0][1:] != a[1:]

    def test_naive_features_cannot_be_trained(self, separable_dir, tmp_path):
        code = main(["train", "--manifest", manifest_of(separable_dir),
                     "--model", str(tmp_path / "m.txt"), "--out", str(tmp_path / "t"),
                     "--features", "naive"] + FAST)
        assert code == EXIT_CONFIG


@pytest.fixture(scope="module")
def wide_cohort(tmp_path_factory):
    """12 samples of 20000 cells x 4 markers, and a model that keeps 20 cells each."""
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(0)
    rows = ["sample_id,path,label"]
    for i in range(12):
        np.savetxt(root / f"s{i}.csv", rng.normal(size=(20000, 4)) + i % 2, delimiter=",",
                   header="a,b,c,d", comments="")
        rows.append(f"s{i},s{i}.csv,{'ab'[i % 2]}")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")
    assert main(["train", "--manifest", str(root / "manifest.csv"),
                 "--model", str(root / "model.txt"), "--D", "32", "--m", "20",
                 "--subsample-method", "uniform", "--out", str(root / "t")]) == EXIT_OK
    return root


class TestStreaming:
    """predict and interpret read, select and drop one raw sample at a time."""

    RAW_BYTES = 20000 * 4 * 8

    @pytest.mark.parametrize("command", ["predict", "interpret"])
    def test_peak_memory_is_a_few_raw_samples(self, wide_cohort, tmp_path, command):
        import tracemalloc

        argv = [command, "--manifest", str(wide_cohort / "manifest.csv"),
                "--model", str(wide_cohort / "model.txt"), "--out", str(tmp_path / "o")]
        if command == "interpret":
            argv += ["--clusters-C", "3"]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 2.2 raw samples; holding all 12 samples peaks above 13
        assert peak < 3 * self.RAW_BYTES

    def test_predict_writes_manifest_rows_then_files(self, wide_cohort, tmp_path):
        # s5 and s0 come as files, so this manifest leaves them out: ids are unique
        ids = [f"s{i}" for i in range(12) if i not in (0, 5)]
        (tmp_path / "manifest.csv").write_text("sample_id,path,label\n" + "".join(
            f"{s},{wide_cohort / s}.csv,{'ab'[int(s[1:]) % 2]}\n" for s in ids))
        predict = ["predict", "--model", str(wide_cohort / "model.txt"), "--manifest"]
        assert main(predict + [str(wide_cohort / "manifest.csv"),
                               "--out", str(tmp_path / "all")]) == EXIT_OK
        assert main(predict + [str(tmp_path / "manifest.csv"), "--out", str(tmp_path / "p"),
                               str(wide_cohort / "s5.csv"),
                               str(wide_cohort / "s0.csv")]) == EXIT_OK
        rows = data_rows(tmp_path / "p" / "predictions.csv")
        everything = data_rows(tmp_path / "all" / "predictions.csv")
        assert [r[0] for r in rows] == ids + ["s5", "s0"]
        assert rows[10:] == [everything[5], everything[0]]


class TestFeaturizeHerd:
    def test_featurize_row_format(self, separable_dir, tmp_path):
        assert main(["featurize", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "f"), "--D", "64", "--seed", "1"]) == 0
        lines = [ln for ln in (tmp_path / "f" / "embeddings.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        assert header[0] == "sample_id" and len(header) == 65
        first = lines[1].split(",")
        mu = np.array([float(v) for v in first[1:]])
        assert np.linalg.norm(mu) <= 1 + 1e-9

    def test_featurize_matches_library(self, separable_dir, tmp_path):
        from setkernel.config import derive_seed
        from setkernel.embedding import embed_matrix

        assert main(["featurize", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "f"), "--D", "64", "--seed", "1"]) == 0
        lines = [ln for ln in (tmp_path / "f" / "embeddings.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")][1:]
        sid, *vals = lines[0].split(",")
        sample = load_sample_set(separable_dir / "data" / "cells" / f"{sid}.csv")
        rmap = sample_frequencies(2, 64, 1.0, derive_seed(1, "rff"))
        np.testing.assert_array_equal(np.array([float(v) for v in vals]),
                                      embed_matrix(rmap, sample.cells))

    def test_herd_outputs(self, separable_dir, tmp_path):
        assert main(["herd", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "h")] + FAST) == 0
        idx_lines = [ln for ln in (tmp_path / "h" / "indices.csv").read_text().splitlines()
                     if ln and not ln.startswith("#")][1:]
        assert len(idx_lines) == 8 * 20
        cells = list((tmp_path / "h" / "cells").iterdir())
        assert len(cells) == 8
        herded = load_sample_set(cells[0])
        assert herded.n == 20

    def test_herd_indices_match_library(self, separable_dir, tmp_path):
        from setkernel import herd as herd_op
        from setkernel.config import derive_seed

        assert main(["herd", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "h")] + FAST) == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "h" / "indices.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        sid = rows[0][0]
        got = [int(r[2]) for r in rows if r[0] == sid]
        sample = load_sample_set(separable_dir / "data" / "cells" / f"{sid}.csv",
                                 sample_id=sid)
        rmap = sample_frequencies(2, 128, 1.0, derive_seed(1, "rff"))
        assert tuple(got) == herd_op(rmap, sample, 20).selected_indices

    @pytest.mark.parametrize("sample_id", ["../escaped", "a/b", "a\\b", "..", "."])
    def test_herd_rejects_sample_id_outside_cells(self, separable_dir, tmp_path, capsys,
                                                  sample_id):
        cells = separable_dir / "data" / "cells"
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("sample_id,path,label\n"
                            f"{sample_id},{cells / 'neg_000.csv'},neg\n"
                            f"pos_000,{cells / 'pos_000.csv'},pos\n")
        out = tmp_path / "run" / "h"
        assert main(["herd", "--manifest", str(manifest), "--out", str(out)] + FAST) == EXIT_DATA
        err = capsys.readouterr().err
        assert repr(sample_id) in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "run").exists()  # no cell file, not even inside --out


MANIFEST_COMMANDS = ["train", "crossval", "predict", "interpret", "herd", "featurize"]


@pytest.mark.parametrize("command, sample_id, problem", [
    *(pytest.param(c, "", "an empty sample_id", id=c) for c in MANIFEST_COMMANDS),
    *(pytest.param(c, "a\0b", "a NUL byte in sample_id 'a\\x00b'", id=f"{c}-nul")
      for c in MANIFEST_COMMANDS),
])
def test_empty_sample_id_exits_3(separable_dir, tmp_path, capsys, command, sample_id, problem):
    # before, every command took the file stem "neg_000" as the empty id, and
    # herd wrote cells/neg_000.csv for it; a NUL byte made herd exit 2 after
    # writing a cell file, and the other commands wrote the NUL into their CSVs
    cells = separable_dir / "data" / "cells"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("sample_id,path,label\n"
                        f"pos_000,{cells / 'pos_000.csv'},pos\n"
                        f"{sample_id},{cells / 'neg_000.csv'},neg\n")
    model = ["--model", str(tmp_path / "m.txt") if command == "train" else str(MODEL_V1)]
    argv = [command, "--manifest", str(manifest), "--out", str(tmp_path / "o")] + FAST
    assert main(argv + (model if command in ("train", "predict", "interpret") else [])) \
        == EXIT_DATA
    err = capsys.readouterr().err
    assert f"manifest row 2 has {problem}" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
def test_carriage_return_in_sample_id_exits_3(separable_dir, tmp_path, capsys, command):
    # Python 3.11's csv.writer leaves a lone CR unquoted: predictions.csv, read
    # back, split the row of the quoted id "a\rb" in two
    cells = separable_dir / "data" / "cells"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("sample_id,path,label\n"
                        f'"a\rb",{cells / "pos_000.csv"},pos\n'
                        f"neg_000,{cells / 'neg_000.csv'},neg\n", newline="")
    model = ["--model", str(tmp_path / "m.txt") if command == "train" else str(MODEL_V1)]
    argv = [command, "--manifest", str(manifest), "--out", str(tmp_path / "o")] + FAST
    assert main(argv + (model if command in ("train", "predict", "interpret") else [])) \
        == EXIT_DATA
    err = capsys.readouterr().err
    assert "manifest row 1 has a carriage return in sample_id 'a\\rb'" in err
    assert len(err.strip().splitlines()) == 1 and not (tmp_path / "o").exists()


def test_carriage_return_in_file_stem_exits_3(separable_dir, tmp_path, capsys):
    # predict takes a positional file's stem as its sample_id
    sample = tmp_path / "a\rb.csv"
    sample.write_bytes((separable_dir / "data" / "cells" / "neg_000.csv").read_bytes())
    assert main(["predict", "--model", str(MODEL_V1), "--out", str(tmp_path / "o"),
                 str(sample)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "sample_id 'a\\rb' holds a carriage return" in err
    assert len(err.strip().splitlines()) == 1 and not (tmp_path / "o").exists()


@pytest.mark.parametrize("with_manifest", [True, False])
def test_repeated_sample_id_in_predict_exits_3(separable_dir, tmp_path, capsys, with_manifest):
    # manifest ids and positional stems name the rows of one predictions.csv;
    # other/neg_000.csv does not exist, so the refusal comes before any sample is read
    files = [str(tmp_path / "other" / "neg_000.csv"),
             str(separable_dir / "data" / "cells" / "neg_000.csv")]
    argv = ["predict", "--model", str(MODEL_V1), "--out", str(tmp_path / "o")]
    if with_manifest:
        argv += ["--manifest", manifest_of(separable_dir)]
    assert main(argv + files) == EXIT_DATA
    err = capsys.readouterr().err
    assert "sample_id 'neg_000' appears twice" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def data_rows(path):
    return [ln.split(",") for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]


def csv_rows(path):
    """The rows of a written CSV, parsed with csv, after its '# config' comment."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if not row[0].startswith("#")]


def marker_cohort(root, header=("CD3,a", "CD4"), neg="neg", first_id="s0"):
    """8 separable samples of 30 cells under header, the first 4 labelled neg,
    the first with id first_id; returns the manifest path and the labels."""
    cells = np.random.default_rng(4).normal(size=(8, 30, 2))
    entries = []
    for k in range(8):
        path = root / f"s{k}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *(cells[k] + 4 * (k >= 4))])
        entries.append((first_id if k == 0 else f"s{k}", path.name, neg if k < 4 else "pos"))
    write_manifest(entries, root / "manifest.csv")
    return str(root / "manifest.csv"), [label for _, _, label in entries]


class TestQuoting:
    """Ids, labels and marker names holding commas survive every output."""

    def test_comma_names_through_train_predict_interpret_stats(self, tmp_path, capsys):
        manifest, labels = marker_cohort(tmp_path, first_id="id,neg0")
        model = tmp_path / "model.txt"
        assert main(["train", "--manifest", manifest, "--model", str(model),
                     "--out", str(tmp_path / "t")] + FAST) == EXIT_OK
        assert '\nmarker_names "CD3,a",CD4\n' in model.read_text()
        assert main(["predict", "--manifest", manifest, "--model", str(model),
                     "--out", str(tmp_path / "p")]) == EXIT_OK
        predictions = csv_rows(tmp_path / "p" / "predictions.csv")
        assert all(len(row) == 3 for row in predictions)
        assert predictions[1][0] == "id,neg0"
        assert [row[2] for row in predictions[1:]] == labels
        assert main(["interpret", "--manifest", manifest, "--model", str(model),
                     "--out", str(tmp_path / "i"), "--clusters-C", "3", "--seed", "1"]) == 0
        for name in ("scores.csv", "frequencies.csv"):
            rows = csv_rows(tmp_path / "i" / name)
            assert all(len(row) == len(rows[0]) for row in rows)
            assert rows[1][0] == "id,neg0"
        capsys.readouterr()
        assert main(["stats", "--manifest", manifest, "--frequencies",
                     str(tmp_path / "i" / "frequencies.csv"), "--cluster", "0",
                     "--out", str(tmp_path / "s")]) == EXIT_OK
        assert "rank_sum_p" in capsys.readouterr().out

    def test_plain_marker_names_keep_the_model_bytes(self, separable_dir, tmp_path):
        model = tmp_path / "model.txt"
        assert main(["train", "--manifest", manifest_of(separable_dir), "--model", str(model),
                     "--out", str(tmp_path / "t")] + FAST) == EXIT_OK
        assert "\nmarker_names f0,f1\n" in model.read_text()

    @pytest.mark.parametrize("header, neg", [(("CD3\nx", "CD4"), "neg"),
                                             (("CD3", "CD4"), "ne\ng"),
                                             (("CD3", "CD4"), "ne\rg")])
    def test_line_break_exits_3_before_writing(self, tmp_path, capsys, header, neg):
        manifest, _ = marker_cohort(tmp_path, header, neg)
        out = tmp_path / "run"
        assert main(["train", "--manifest", manifest, "--model", str(out / "model.txt"),
                     "--out", str(out / "t")] + FAST) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line break" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestSelectionRule:
    """One rule for every command: m >= n (or m=all) keeps the cells in storage order."""

    @pytest.mark.parametrize("method", ["herding", "uniform"])
    @pytest.mark.parametrize("m", ["200", "all"])
    def test_small_samples_pass_through(self, separable_dir, tmp_path, m, method):
        from setkernel.config import derive_seed
        from setkernel.embedding import embed_matrix

        manifest = manifest_of(separable_dir)
        flags = ["--D", "64", "--seed", "1", "--m", m, "--subsample-method", method]
        model_path = tmp_path / "model.txt"
        assert main(["train", "--manifest", manifest, "--model", str(model_path),
                     "--out", str(tmp_path / "t")] + flags) == EXIT_OK
        for cmd, extra in (("herd", flags), ("featurize", flags),
                           ("predict", ["--model", str(model_path)]),
                           ("interpret", ["--model", str(model_path), "--clusters-C", "3"])):
            assert main([cmd, "--manifest", manifest, "--out", str(tmp_path / cmd)]
                        + extra) == EXIT_OK
        n = 50
        indices = data_rows(tmp_path / "herd" / "indices.csv")
        scores = data_rows(tmp_path / "interpret" / "scores.csv")
        decisions = {r[0]: float(r[1])
                     for r in data_rows(tmp_path / "predict" / "predictions.csv")}
        features = {r[0]: np.array([float(v) for v in r[1:]])
                    for r in data_rows(tmp_path / "featurize" / "embeddings.csv")}
        rmap = sample_frequencies(2, 64, 1.0, derive_seed(1, "rff"))
        assert len(decisions) == 8
        for sid, decision in decisions.items():
            assert [int(r[2]) for r in indices if r[0] == sid] == list(range(n))
            assert [int(r[1]) for r in scores if r[0] == sid] == list(range(n))
            cell_scores = [float(r[2]) for r in scores if r[0] == sid]
            assert abs(np.mean(cell_scores) - decision) <= 1e-12
            sample = load_sample_set(separable_dir / "data" / "cells" / f"{sid}.csv")
            np.testing.assert_array_equal(features[sid], embed_matrix(rmap, sample.cells))
            kept = load_sample_set(tmp_path / "herd" / "cells" / f"{sid}.csv")
            np.testing.assert_array_equal(kept.cells, sample.cells)

    def test_featurize_writes_the_rows_train_fits_on(self, separable_dir, tmp_path):
        from setkernel import herd as herd_op
        from setkernel.classifier import load_model
        from setkernel.config import derive_seed
        from setkernel.embedding import embed_matrix

        manifest = manifest_of(separable_dir)
        assert main(["featurize", "--manifest", manifest, "--out", str(tmp_path / "f")]
                    + FAST) == EXIT_OK
        assert main(["train", "--manifest", manifest, "--model", str(tmp_path / "m.txt"),
                     "--out", str(tmp_path / "t")] + FAST) == EXIT_OK
        assert main(["predict", "--manifest", manifest, "--model", str(tmp_path / "m.txt"),
                     "--out", str(tmp_path / "p")]) == EXIT_OK
        model = load_model(tmp_path / "m.txt")
        decisions = {r[0]: float(r[1]) for r in data_rows(tmp_path / "p" / "predictions.csv")}
        rmap = sample_frequencies(2, 128, 1.0, derive_seed(1, "rff"))
        rows = data_rows(tmp_path / "f" / "embeddings.csv")
        assert len(rows) == 8
        for sid, *vals in rows:
            row = np.array([float(v) for v in vals])
            sample = load_sample_set(separable_dir / "data" / "cells" / f"{sid}.csv",
                                     sample_id=sid)
            kept = list(herd_op(rmap, sample, 20).selected_indices)
            np.testing.assert_array_equal(row, embed_matrix(rmap, sample.cells[kept]))
            assert abs(row @ model.beta + model.bias - decisions[sid]) <= 1e-12


class TestHerdBench:
    def test_m_equals_n_gives_zero_error(self, tmp_path):
        spec = {"sets_per_class": 1, "cells_per_set": 50, "seed": 1,
                "components": [{"mean": [0.0, 0.0], "cov": [1.0, 1.0]}],
                "weights_neg": [1.0], "weights_pos": [1.0]}
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["herd-bench", "--spec", str(spec_path), "--out", str(tmp_path / "b"),
                     "--m-list", "10,50", "--bench-seeds", "2", "--D", "64"]) == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "b" / "herd_bench.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        by_key = {(r[0], int(r[1])): float(r[2]) for r in rows}
        assert by_key[("herding", 50)] <= 1e-9
        assert by_key[("uniform", 50)] <= 1e-9
        assert by_key[("herding", 10)] <= by_key[("uniform", 10)]

    def test_m_exceeding_n_exit_2(self, tmp_path):
        spec = {"sets_per_class": 1, "cells_per_set": 30, "seed": 1,
                "components": [{"mean": [0.0], "cov": [1.0]}],
                "weights_neg": [1.0], "weights_pos": [1.0]}
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["herd-bench", "--spec", str(spec_path), "--out", str(tmp_path / "b"),
                     "--m-list", "10,31", "--D", "64"]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def interpreted(separable_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("interp")
    model_path = out / "model.txt"
    assert main(["train", "--manifest", manifest_of(separable_dir),
                 "--model", str(model_path), "--out", str(out / "t")] + FAST) == 0
    assert main(["interpret", "--manifest", manifest_of(separable_dir),
                 "--model", str(model_path), "--out", str(out / "i"),
                 "--clusters-C", "4", "--seed", "1"]) == 0
    return out / "i"


class TestInterpretCommand:
    def test_cluster_csv_has_exactly_c_rows(self, interpreted):
        rows = [ln for ln in (interpreted / "clusters.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 4

    def test_scores_csv_shape(self, interpreted):
        rows = [ln for ln in (interpreted / "scores.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 8 * 20  # 8 samples x m=20 selected cells

    def test_frequencies_on_simplex(self, interpreted):
        rows = [ln.split(",") for ln in
                (interpreted / "frequencies.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        for r in rows:
            freqs = np.array([float(v) for v in r[2:]])
            assert abs(freqs.sum() - 1.0) <= 1e-9

    def test_stats_rows_are_valid_p_values(self, interpreted):
        rows = [ln.split(",") for ln in
                (interpreted / "stats.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 4
        assert all(0.0 < float(p) <= 1.0 for _, p in rows)

    def test_summary_has_pearson(self, interpreted):
        text = (interpreted / "summary.txt").read_text()
        assert "pearson_centroid_vs_average=" in text

    def test_stats_command_matches_module(self, separable_dir, interpreted, tmp_path,
                                          capsys):
        from setkernel import rank_sum_test
        from setkernel.data import load_manifest

        assert main(["stats", "--manifest", manifest_of(separable_dir),
                     "--frequencies", str(interpreted / "frequencies.csv"),
                     "--cluster", "0", "--out", str(tmp_path / "s")]) == 0
        printed = float(capsys.readouterr().out.split()[-1])
        ds = load_manifest(manifest_of(separable_dir))
        rows = [ln.split(",") for ln in
                (interpreted / "frequencies.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        by_id = {r[0]: float(r[2]) for r in rows}
        neg = [by_id[s.sample_id] for s, y in zip(ds.samples, ds.labels) if y == -1]
        pos = [by_id[s.sample_id] for s, y in zip(ds.samples, ds.labels) if y == +1]
        assert printed == rank_sum_test(neg, pos)

    def test_stats_reads_no_sample_file(self, separable_dir, interpreted, tmp_path, capsys):
        import shutil

        args = ["stats", "--frequencies", str(interpreted / "frequencies.csv"),
                "--cluster", "0", "--out", str(tmp_path / "s")]
        assert main(args + ["--manifest", manifest_of(separable_dir)]) == EXIT_OK
        before = capsys.readouterr().out
        # a copy of the manifest whose relative sample paths name no file
        shutil.copy(manifest_of(separable_dir), tmp_path / "manifest.csv")
        assert not (tmp_path / "cells").exists()
        assert main(args + ["--manifest", str(tmp_path / "manifest.csv")]) == EXIT_OK
        assert capsys.readouterr().out == before
        (tmp_path / "bad.csv").write_text("sample_id,path\nneg_000,x.csv\n")
        assert main(args + ["--manifest", str(tmp_path / "bad.csv")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "manifest header" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        ("", "empty frequencies file"),
        ("sample_id,label,freq_0,freq_1\nneg_000,neg,0.5\n", "row 1 has 3 fields, expected 4"),
        ("sample_id,label,freq_0,freq_1\nneg_000,neg,abc,0.5\n",
         "row 1 column freq_0: 'abc' is not a number"),
        *((f"sample_id,label,freq_0,freq_1\nneg_000,neg,0.5,0.5\npos_000,pos,{v},0.5\n",
           f"row 2 column freq_0: '{v}' is not a frequency in [0, 1]")
          for v in ("nan", "inf", "-inf", "-0.25", "1.5")),
    ])
    def test_stats_malformed_frequencies_exit_3(self, separable_dir, tmp_path, capsys,
                                                text, message):
        freqs = tmp_path / "freqs.csv"
        freqs.write_text(text)
        assert main(["stats", "--manifest", manifest_of(separable_dir), "--frequencies",
                     str(freqs), "--cluster", "0", "--out", str(tmp_path / "s")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1

    def test_stats_sample_listed_twice_exits_3(self, separable_dir, tmp_path, capsys):
        freqs = tmp_path / "freqs.csv"
        freqs.write_text("sample_id,label,freq_0\nneg_000,neg,0.5\npos_000,pos,0.1\n"
                         "neg_000,neg,0.5\n")
        assert main(["stats", "--manifest", manifest_of(separable_dir), "--frequencies",
                     str(freqs), "--cluster", "0", "--out", str(tmp_path / "s")]) == EXIT_DATA
        assert capsys.readouterr().err == (f"error: {freqs}: row 3 repeats sample_id "
                                           "'neg_000'\n")
        assert not (tmp_path / "s").exists()

    def test_each_cell_is_featurized_once(self, separable_dir, interpreted, tmp_path,
                                          monkeypatch):
        import setkernel.interpret

        # kept cells are scored in the worker processes, centroids in this one:
        # every process appends its row counts to one file
        log = tmp_path / "rows.log"
        featurize = setkernel.interpret.featurize_batch

        def counting(rmap, X):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{np.atleast_2d(X).shape[0]}\n")
            return featurize(rmap, X)

        monkeypatch.setattr(setkernel.interpret, "featurize_batch", counting)
        assert main(["interpret", "--manifest", manifest_of(separable_dir),
                     "--model", str(interpreted.parent / "model.txt"),
                     "--out", str(tmp_path / "i"), "--clusters-C", "4", "--seed", "1"]) == 0
        rows = [int(line) for line in log.read_text().split()]
        assert sum(rows) == 8 * 20 + 4  # N samples x m kept cells, plus C centroids

    def test_zero_beta_model_reports_na(self, separable_dir, tmp_path, capsys):
        rmap = sample_frequencies(2, 64, 1.0, 5)
        model = LinearModel(beta=np.zeros(64), bias=0.25, rff=rmap, reg_c=1.0,
                            train_meta={"label_neg": "neg", "label_pos": "pos",
                                        "m": 10, "subsample_method": "herding",
                                        "preprocessing": "none", "seed": 5,
                                        "marker_names": ("f0", "f1")})
        save_model(model, tmp_path / "zero.txt")
        assert main(["interpret", "--manifest", manifest_of(separable_dir),
                     "--model", str(tmp_path / "zero.txt"), "--out", str(tmp_path / "i"),
                     "--clusters-C", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "n/a: zero variance" in out
        scores = [ln.split(",") for ln in
                  (tmp_path / "i" / "scores.csv").read_text().splitlines()
                  if ln and not ln.startswith("#")][1:]
        assert all(float(r[2]) == 0.25 for r in scores)


class TestConfigPrecedence:
    def test_flag_overrides_file(self, separable_dir, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("gamma=2.0\nD=64\nm=10\nfolds=4\nruns=1\n# comment\n")
        code = main(["crossval", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "cv"), "--config", str(cfg_file),
                     "--gamma", "4.0", "--seed", "1"])
        assert code == EXIT_OK
        meta = (tmp_path / "cv" / "meta.txt").read_text()
        assert "gamma=4.0" in meta
        assert "D=64" in meta  # file value survives where no flag given
        assert "m=10" in meta

    def test_unknown_config_key_exit_2(self, separable_dir, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("bogus=1\n")
        code = main(["crossval", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "cv"), "--config", str(cfg_file)])
        assert code == EXIT_CONFIG

    def test_threads_flag_accepts_only_1(self, separable_dir, tmp_path, capsys):
        # --threads survives so existing scripts still parse; it is ignored (a
        # herding chain runs in one worker process per usable CPU whatever it says)
        # and the setting reaches no output.
        args = ["crossval", "--manifest", manifest_of(separable_dir), "--folds", "4",
                "--runs", "1"] + FAST
        assert main(args + ["--out", str(tmp_path / "a"), "--threads", "1"]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("report.csv", "meta.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert "threads" not in (tmp_path / "a" / "meta.txt").read_text()
        capsys.readouterr()
        assert main(args + ["--out", str(tmp_path / "c"), "--threads", "2"]) == EXIT_CONFIG
        assert "invalid choice: 2" in capsys.readouterr().err
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("threads=1\n")
        assert main(args + ["--out", str(tmp_path / "d"), "--config", str(cfg_file)]) \
            == EXIT_CONFIG
        assert "unknown config key 'threads'" in capsys.readouterr().err

    def test_m_all_setting(self, separable_dir, tmp_path):
        code = main(["crossval", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "cv"), "--m", "all", "--D", "64",
                     "--folds", "4", "--runs", "1", "--seed", "1"])
        assert code == EXIT_OK
        assert "m=all" in (tmp_path / "cv" / "meta.txt").read_text()


class TestAppliedConfig:
    """predict and interpret record the settings they applied: the model's."""

    def test_meta_and_comments_follow_the_model(self, separable_dir, tmp_path):
        model = str(tmp_path / "model.txt")
        assert main(["train", "--manifest", manifest_of(separable_dir), "--model", model,
                     "--out", str(tmp_path / "t"), "--gamma", "3", "--reg-c", "2",
                     "--subsample-method", "uniform", "--seed", "7"] + FAST[:4]) == EXIT_OK
        assert main(["predict", "--manifest", manifest_of(separable_dir), "--model", model,
                     "--out", str(tmp_path / "p")]) == EXIT_OK
        assert main(["interpret", "--manifest", manifest_of(separable_dir), "--model", model,
                     "--out", str(tmp_path / "i"), "--clusters-C", "3", "--seed", "1"]) == 0
        applied = {"gamma": "3.0", "D": "128", "m": "20", "reg_c": "2.0",
                   "subsample_method": "uniform"}
        for path, extra in [(tmp_path / "p" / "meta.txt", {"seed": "7"}),
                            (tmp_path / "i" / "meta.txt", {"seed": "1", "clusters_C": "3"})]:
            meta = dict(ln.split("=", 1) for ln in path.read_text().splitlines())
            assert {k: meta[k] for k in {**applied, **extra}} == {**applied, **extra}
        for path in (tmp_path / "p" / "predictions.csv", tmp_path / "i" / "scores.csv"):
            comment = path.read_text().splitlines()[0]
            assert "gamma=3.0" in comment and "subsample_method=uniform" in comment
        assert "clusters_C=3" in (tmp_path / "i" / "summary.txt").read_text()


def test_every_output_csv_begins_with_the_config_line(separable_dir, tmp_path):
    model = str(tmp_path / "model.txt")
    runs = {"featurize": [], "herd": [], "train": ["--model", model],
            "crossval": ["--folds", "4", "--runs", "1", "--sweep-gamma", "0.5,2"],
            "predict": ["--model", model], "interpret": ["--model", model, "--clusters-C", "3"]}
    written = []
    for command, extra in runs.items():
        out = tmp_path / command
        assert main([command, "--manifest", manifest_of(separable_dir), "--out", str(out)]
                    + FAST + extra) == EXIT_OK
        written += out.glob("*.csv")  # herd's cells/ hold sample files, which open with markers
    assert sorted(p.name for p in written) == sorted(
        ["embeddings.csv", "indices.csv", "report_gamma0.5_c1.csv", "report_gamma2_c1.csv",
         "sweep.csv", "predictions.csv", "scores.csv", "clusters.csv", "frequencies.csv",
         "stats.csv"])
    for path in written:
        assert path.read_text(encoding="utf-8").startswith("# config: "), path


class TestRefusalsBeforeReading:
    """A refusal that the flags or the manifest decide exits 2 with one error line
    before any sample file, or predict's model file, is read."""

    @pytest.fixture(autouse=True)
    def no_sample_read(self, monkeypatch):
        # raised in whichever process reads, and not an error main() maps to an exit code
        def refuse(path, *args, **kwargs):
            raise AssertionError(f"sample file {path} was read")

        monkeypatch.setattr("setkernel.data.load_sample_set", refuse)

    def refused(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()
        return err

    def test_predict_without_samples_reads_no_model(self, tmp_path, capsys):
        err = self.refused(["predict", "--model", str(tmp_path / "missing" / "m.txt")],
                           tmp_path, capsys)
        assert err == "error: predict needs --manifest or at least one sample CSV\n"

    @pytest.mark.parametrize("manifest", ["separable", "missing"])
    def test_untrainable_features(self, separable_dir, tmp_path, capsys, manifest):
        path = (manifest_of(separable_dir) if manifest == "separable"
                else str(tmp_path / "missing.csv"))
        err = self.refused(["train", "--manifest", path, "--model", str(tmp_path / "m.txt"),
                            "--features", "naive"] + FAST, tmp_path, capsys)
        assert err == "error: only features=rff models can be trained and saved\n"
        assert not (tmp_path / "m.txt").exists()

    def test_more_folds_than_samples(self, separable_dir, tmp_path, capsys):
        err = self.refused(["crossval", "--manifest", manifest_of(separable_dir),
                            "--folds", "30"] + FAST, tmp_path, capsys)
        assert err == "error: folds exceeds sample count (30 > 8)\n"

    @pytest.mark.parametrize("permute", [[], ["--permute-labels", "3"]])
    def test_class_of_one_sample(self, separable_dir, tmp_path, capsys, permute):
        cells = separable_dir / "data" / "cells"
        manifest = tmp_path / "m.csv"
        write_manifest([("n0", str(cells / "neg_000.csv"), "neg")]
                       + [(f"p{i}", str(cells / f"pos_00{i}.csv"), "pos") for i in range(3)],
                       manifest)
        err = self.refused(["crossval", "--manifest", str(manifest), "--folds", "2"]
                           + permute + FAST, tmp_path, capsys)
        assert err.startswith("error: class -1 has 1 sample(s)")


class TestExitCodes:
    @pytest.mark.parametrize("command", ["predict", "interpret"])
    def test_invalid_flag_exits_2_before_the_model_is_read(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = main([command, "--model", str(tmp_path / "missing.txt"), "--manifest",
                     str(tmp_path / "missing.csv"), "--D", "3", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: D must be even and >= 2, got 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("crossval", "--permute-labels"),
                                               ("herd-bench", "--bench-seeds")])
    def test_integer_flag_names_itself(self, separable_dir, tmp_path, capsys, command, flag):
        # crossval checks the flag before it reads the (here missing) manifest
        inputs = {"crossval": ["--manifest", str(tmp_path / "missing.csv")],
                  "herd-bench": ["--spec", str(separable_dir / "spec.json"), "--m-list", "10"]}
        out = tmp_path / "o"
        assert main([command, flag, "x", "--out", str(out)] + inputs[command]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {flag} must be an integer, got 'x'\n"
        assert not out.exists()

    def test_linalg_error_exits_4(self, separable_dir, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, which alone would map to exit 2
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("setkernel.cli.cross_validate", singular)
        code = main(["crossval", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "cv")] + FAST)
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "error: Singular matrix\n"

    def test_non_utf8_config_exits_2_naming_it(self, separable_dir, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_bytes(b"gamma=1\n\xff\n")
        code = main(["crossval", "--manifest", manifest_of(separable_dir),
                     "--out", str(tmp_path / "cv"), "--config", str(cfg_file)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg_file}: ")
        assert "can't decode byte 0xff" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("setting, message", [
        (["--gamma", "inf"], "gamma must be positive and finite, got inf"),
        (["--gamma", "1e400"], "gamma must be positive and finite, got inf"),
        (["--reg-c", "inf"], "reg_c must be positive and finite, got inf"),
        ("reg_c=inf", "reg_c must be positive and finite, got inf"),
        (["--sweep-gamma", "inf"], "--sweep-gamma: gamma must be positive and finite, got inf"),
        (["--sweep-gamma", "1,abc"], "--sweep-gamma: gamma must be a number, got 'abc'"),
        (["--sweep-reg-c", "1,nan"], "--sweep-reg-c: reg_c must be positive and finite, got nan"),
        (["--preprocessing", "arcsinh:inf"],
         "arcsinh cofactor must be positive and finite, got inf"),
    ])
    def test_bad_gamma_or_reg_c_exits_2_before_any_output(self, separable_dir, tmp_path,
                                                         capsys, setting, message):
        # gamma = inf would draw W = 0, so every feature would be constant
        if isinstance(setting, str):
            cfg_file = tmp_path / "cfg.txt"
            cfg_file.write_text(setting + "\n")
            setting = ["--config", str(cfg_file)]
        out = tmp_path / "cv"
        code = main(["crossval", "--manifest", manifest_of(separable_dir), "--out", str(out),
                     "--folds", "4", "--runs", "1"] + FAST + setting)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()  # the first sweep point's report is not written

    def test_train_with_infinite_gamma_writes_no_model(self, separable_dir, tmp_path, capsys):
        model = tmp_path / "model.txt"
        code = main(["train", "--manifest", manifest_of(separable_dir), "--model", str(model),
                     "--gamma", "1e400", "--out", str(tmp_path / "tr")] + FAST)
        assert code == EXIT_CONFIG and not model.exists()
        assert capsys.readouterr().err == "error: gamma must be positive and finite, got inf\n"

    @pytest.mark.parametrize("gamma", ["inf", "nan", "-inf"])
    def test_model_with_non_finite_gamma_exits_3_naming_it(self, tmp_path, capsys, gamma):
        model = tmp_path / "model.txt"
        model.write_text(MODEL_V1.read_text().replace("\ngamma 1\n", f"\ngamma {gamma}\n"))
        probe = tmp_path / "probe.csv"
        probe.write_text("f0,f1\n0.5,1.5\n")
        code = main(["predict", "--model", str(model), str(probe), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and "positive and finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["sample", "manifest", "model", "frequencies"])
    def test_non_utf8_file_exits_3_naming_it(self, separable_dir, tmp_path, capsys, kind):
        probe = tmp_path / "probe.csv"
        probe.write_bytes(b"f0,f1\n0.5,1.5\n")
        bad = tmp_path / "bad.csv"
        if kind == "sample":
            bad.write_bytes(b"f0,f1\n0.5,1\xff5\n")
            argv = ["predict", "--model", str(MODEL_V1), str(bad)]
        elif kind == "manifest":
            bad.write_bytes(b"sample_id,path,label\na,probe.csv,x\xff\nb,probe.csv,y\n")
            argv = ["predict", "--model", str(MODEL_V1), "--manifest", str(bad)]
        elif kind == "model":
            bad.write_bytes(MODEL_V1.read_bytes().replace(b"label_neg neg", b"label_neg n\xffg"))
            argv = ["predict", "--model", str(bad), str(probe)]
        else:
            bad.write_bytes(b"sample_id,label,freq_0\nneg_000,neg,0\xff5\n")
            argv = ["stats", "--manifest", manifest_of(separable_dir), "--frequencies",
                    str(bad), "--cluster", "0"]
        assert b"\xff" in bad.read_bytes()
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "can't decode byte 0xff" in err
        assert len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def overflow_dir(tmp_path_factory):
    """Four 20-cell samples, and a manifest where sample b has one cell at 1e308."""
    root = tmp_path_factory.mktemp("overflow")
    rng = np.random.default_rng(8)
    for name in "abcd":
        np.savetxt(root / f"{name}.csv", rng.normal(size=(20, 2)), delimiter=",",
                   header="f0,f1", comments="")
    big = np.loadtxt(root / "b.csv", delimiter=",", skiprows=1)
    big[3] = 1e308
    np.savetxt(root / "big.csv", big, delimiter=",", header="f0,f1", comments="")
    big[3] = 1e200  # X @ W is finite, its square is not
    np.savetxt(root / "huge.csv", big, delimiter=",", header="f0,f1", comments="")
    big[3] = [1e60, 0.5]  # X @ W is finite, its phase reduced in float64 is not in float32
    np.savetxt(root / "phase.csv", big, delimiter=",", header="f0,f1", comments="")
    rows = "\na,a.csv,neg\nb,{},pos\nc,c.csv,neg\nd,d.csv,pos\n"
    (root / "clean.csv").write_text("sample_id,path,label" + rows.format("b.csv"))
    (root / "overflow.csv").write_text("sample_id,path,label" + rows.format("big.csv"))
    (root / "huge_b.csv").write_text("sample_id,path,label" + rows.format("huge.csv"))
    (root / "phase_b.csv").write_text("sample_id,path,label" + rows.format("phase.csv"))
    return root


class TestOverflowingFeatures:
    """A cell too large for X @ W to be finite, or under herding for its phase
    reduced to [-pi, pi] to be finite in float32, exits 4 with one line naming
    its sample, emits no warning and writes no result file. With 20 cells and
    m=2 herding takes its scan source (n > 6 m)."""

    SCAN = ["--m", "2", "--D", "64", "--seed", "1"]
    PHASE = ("X @ W is too large to reduce in float32: a cell's values are too large for "
             "the feature map")

    def run(self, argv, capsys, message="error: sample 'b': X @ W overflows float64: a cell's "
                                        "values are too large for the feature map\n"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert err == message

    def test_predict(self, tmp_path, capsys):
        (tmp_path / "b.csv").write_text("f0,f1\n1e308,1e308\n")
        self.run(["predict", "--model", str(MODEL_V1), str(tmp_path / "b.csv"),
                  "--out", str(tmp_path / "o")], capsys)
        assert not (tmp_path / "o").exists()

    def test_train(self, overflow_dir, tmp_path, capsys):
        model = tmp_path / "model.txt"
        self.run(["train", "--manifest", str(overflow_dir / "overflow.csv"), "--model",
                  str(model), "--out", str(tmp_path / "t")] + self.SCAN, capsys)
        assert not model.exists()

    def test_herd(self, overflow_dir, tmp_path, capsys):
        self.run(["herd", "--manifest", str(overflow_dir / "overflow.csv"),
                  "--out", str(tmp_path / "h")] + self.SCAN, capsys)
        assert not (tmp_path / "h").exists()  # not even sample a's cells

    def test_interpret(self, overflow_dir, tmp_path, capsys):
        model = tmp_path / "model.txt"
        assert main(["train", "--manifest", str(overflow_dir / "clean.csv"), "--model",
                     str(model), "--out", str(tmp_path / "t")] + self.SCAN) == EXIT_OK
        self.run(["interpret", "--manifest", str(overflow_dir / "overflow.csv"), "--model",
                  str(model), "--clusters-C", "2", "--out", str(tmp_path / "i")], capsys)
        assert not (tmp_path / "i").exists()

    @pytest.mark.parametrize("command", ["predict", "interpret"])
    @pytest.mark.parametrize("first", ["overflow", "missing"])
    def test_first_failing_sample_decides(self, overflow_dir, tmp_path, capsys, command,
                                          first):
        model = tmp_path / "model.txt"
        assert main(["train", "--manifest", str(overflow_dir / "clean.csv"), "--model",
                     str(model), "--out", str(tmp_path / "t")] + self.SCAN) == EXIT_OK
        bad = {"overflow": overflow_dir / "big.csv", "missing": tmp_path / "gone.csv"}
        second = "missing" if first == "overflow" else "overflow"
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"sample_id,path,label\na,{overflow_dir / 'a.csv'},neg\n"
                            f"b,{bad[first]},pos\nc,{bad[second]},neg\n"
                            f"d,{overflow_dir / 'd.csv'},pos\n")
        argv = [command, "--manifest", str(manifest), "--model", str(model),
                "--out", str(tmp_path / "o")]
        if command == "interpret":
            argv += ["--clusters-C", "2"]
        if first == "overflow":
            self.run(argv, capsys)
        else:
            assert main(argv) == EXIT_DATA
            err = capsys.readouterr().err
            assert "gone.csv" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["crossval", "train", "predict", "herd", "interpret"])
    def test_float32_phase_overflow_under_herding(self, overflow_dir, tmp_path, capsys,
                                                  command):
        # herding's float32 sin/cos take the phase reduced in float64; at 1e60
        # that is still far above float32's range, while uniform runs pass
        model = tmp_path / "model.txt"
        assert main(["train", "--manifest", str(overflow_dir / "clean.csv"), "--model",
                     str(model), "--out", str(tmp_path / "t")] + self.SCAN) == EXIT_OK
        manifest = str(overflow_dir / "phase_b.csv")
        argv = {"crossval": ["--folds", "2", "--runs", "1"] + self.SCAN,
                "train": ["--model", str(tmp_path / "m2.txt")] + self.SCAN,
                "predict": ["--model", str(model)], "herd": self.SCAN,
                "interpret": ["--model", str(model), "--clusters-C", "2"]}[command]
        out = tmp_path / "o"
        self.run([command, "--manifest", manifest, "--out", str(out)] + argv, capsys,
                 f"error: sample 'b': {self.PHASE}\n")
        assert not out.exists() and not (tmp_path / "m2.txt").exists()
        if command == "train":
            assert main(["train", "--manifest", manifest, "--model", str(tmp_path / "m3.txt"),
                         "--out", str(tmp_path / "u"), "--subsample-method", "uniform"]
                        + self.SCAN) == EXIT_OK

    def test_tiny_gamma_overflows_the_float32_phase(self, overflow_dir, tmp_path, capsys):
        # gamma = 1e-320 scales W by 1e160, so ordinary cells' phases are too large
        self.run(["train", "--manifest", str(overflow_dir / "clean.csv"), "--model",
                  str(tmp_path / "m.txt"), "--out", str(tmp_path / "t"), "--gamma", "1e-320"]
                 + self.SCAN, capsys, f"error: sample 'a': {self.PHASE}\n")
        assert not (tmp_path / "m.txt").exists()

    def test_interpret_kmeans_overflow(self, overflow_dir, tmp_path, capsys):
        # uniform selection with m >= n keeps the 1e200 cell; its squared
        # norm overflows the k-means distances
        model = tmp_path / "model.txt"
        assert main(["train", "--manifest", str(overflow_dir / "clean.csv"), "--model",
                     str(model), "--m", "50", "--subsample-method", "uniform", "--D", "64",
                     "--seed", "1", "--out", str(tmp_path / "t")]) == EXIT_OK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["interpret", "--manifest", str(overflow_dir / "huge_b.csv"),
                         "--model", str(model), "--clusters-C", "2",
                         "--out", str(tmp_path / "i")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "error: sample 'b': cells too large for k-means in float64 "
            "(squared norm up to inf over 40 pooled cells)\n")
        assert not (tmp_path / "i").exists()


class TestPreprocessingOverflow:
    """A preprocessing step whose float64 result overflows exits 4 with one line
    naming the sample, emits no warning and writes no result file."""

    def run(self, argv, capsys, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"error: sample 'neg_000': {message}\n"

    def test_tiny_arcsinh_cofactor(self, separable_dir, tmp_path, capsys):
        out = tmp_path / "cv"
        self.run(["crossval", "--manifest", manifest_of(separable_dir), "--out", str(out),
                  "--folds", "2", "--runs", "1", "--preprocessing", "arcsinh:1e-320"] + FAST,
                 capsys, "preprocessing arcsinh:1e-320 overflows float64")
        assert not out.exists()

    def test_tiny_standardizer_std_in_a_model_file(self, separable_dir, tmp_path, capsys):
        model = tmp_path / "model.txt"
        assert main(["train", "--manifest", manifest_of(separable_dir), "--model", str(model),
                     "--out", str(tmp_path / "t"), "--preprocessing", "standardize"]
                    + FAST) == EXIT_OK
        lines = model.read_text().splitlines()
        lines = [("standardizer_std 5e-324 5e-324" if ln.startswith("standardizer_std ")
                  else ln) for ln in lines]
        model.write_text("\n".join(lines) + "\n")
        out = tmp_path / "p"
        self.run(["predict", "--model", str(model), "--manifest", manifest_of(separable_dir),
                  "--out", str(out)], capsys, "preprocessing standardize overflows float64")
        assert not out.exists()


def test_standardizer_fit_overflow_exits_4(overflow_dir, tmp_path, capsys):
    # the 1e200 cell is finite, its square in the pooled std is not
    model = tmp_path / "model.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--manifest", str(overflow_dir / "huge_b.csv"), "--model",
                     str(model), "--out", str(tmp_path / "t"), "--preprocessing", "standardize",
                     "--subsample-method", "uniform", "--D", "64", "--m", "5"])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == ("error: preprocessing standardize: the pooled training "
                                       "cells' mean or std overflows float64\n")
    assert not model.exists() and not (tmp_path / "t").exists()


_CONFIG_KEYS = ["gamma", "D", "m", "folds", "runs", "reg_c", "seed", "subsample_method",
                "preprocessing", "clusters_C", "features", "threads", "", " D "]
_config_line = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS),
              st.one_of(st.text(max_size=12), st.integers().map(str),
                        st.floats().map(repr))).map("=".join),
    st.text(max_size=20))
_config_bytes = st.one_of(
    st.binary(max_size=120),
    st.lists(_config_line, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.tuples(st.lists(_config_line, max_size=4), st.binary(max_size=8)).map(
        lambda t: "\r\n".join(t[0]).encode("utf-8") + t[1]))


class TestConfigFuzz:
    """Any config file gives a settings dict or a ConfigError; the CLI turns a
    bad one into exit 2 with a one-line message, never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(raw=_config_bytes)
    def test_arbitrary_bytes(self, tmp_path_factory, raw):
        work = tmp_path_factory.getbasetemp() / "config_fuzz"
        work.mkdir(exist_ok=True)
        cfg_file = work / "cfg.txt"
        cfg_file.write_bytes(raw)
        try:
            build_config(parse_config_file(cfg_file))
        except ConfigError:
            expected = EXIT_CONFIG
        else:
            expected = EXIT_DATA  # a valid config gets as far as the missing manifest
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["crossval", "--config", str(cfg_file),
                         "--manifest", str(work / "missing.csv"), "--out", str(work / "o")])
        assert code == expected
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1
        assert message.endswith("\n")
