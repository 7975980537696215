import contextlib
import csv
import io
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkernel import (
    DataError,
    SampleSet,
    apply_standardizer,
    arcsinh_transform,
    fit_standardizer,
    load_manifest,
    load_sample_set,
    map_samples,
    save_sample_set,
)
from setkernel.cli import EXIT_DATA, EXIT_OK, main
from setkernel.data import read_manifest, write_manifest

from conftest import MODEL_V1, make_sample


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def read_aligned(manifest_path, markers):
    """The manifest's samples, read as predict reads them: each one's columns in
    markers' order."""
    manifest = read_manifest(manifest_path)
    return map_samples(zip(manifest.sample_ids, manifest.paths), lambda s: s, markers)


class TestLoadSampleSet:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path / "a.csv", "CD3,CD4\n1.0,2.0\n3.5,-4.0\n0,0\n")
        s = load_sample_set(p)
        assert s.n == 3 and s.d == 2
        assert s.marker_names == ("CD3", "CD4")
        assert s.sample_id == "a"
        np.testing.assert_array_equal(s.cells, [[1.0, 2.0], [3.5, -4.0], [0.0, 0.0]])

    def test_blank_field_reports_position(self, tmp_path):
        p = write(tmp_path / "a.csv", "CD3,CD4\n1.0,2.0\n3.5,\n")
        with pytest.raises(DataError, match=r"non-numeric value at row 2, column 2"):
            load_sample_set(p)

    def test_non_numeric_value(self, tmp_path):
        p = write(tmp_path / "a.csv", "CD3,CD4\nx,2.0\n")
        with pytest.raises(DataError, match=r"non-numeric value at row 1, column 1"):
            load_sample_set(p)

    def test_expected_markers_permute_columns(self, tmp_path):
        p = write(tmp_path / "a.csv", "CD4,CD3\n1.0,2.0\n3.0,4.0\n")
        s = load_sample_set(p, expected_markers=["CD3", "CD4"])
        assert s.marker_names == ("CD3", "CD4")
        np.testing.assert_array_equal(s.cells, [[2.0, 1.0], [4.0, 3.0]])

    def test_marker_mismatch(self, tmp_path):
        p = write(tmp_path / "a.csv", "CD4,CD8\n1.0,2.0\n")
        with pytest.raises(DataError, match="marker mismatch"):
            load_sample_set(p, expected_markers=["CD3", "CD4"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_sample_set(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "a.csv", "")
        with pytest.raises(DataError, match="empty file"):
            load_sample_set(p)

    def test_header_only(self, tmp_path):
        p = write(tmp_path / "a.csv", "CD3,CD4\n")
        with pytest.raises(DataError, match="no cell rows"):
            load_sample_set(p)

    def test_nan_rejected(self, tmp_path):
        p = write(tmp_path / "a.csv", "CD3\nnan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_sample_set(p)

    def test_roundtrip_identical(self, tmp_path, rng):
        cells = rng.normal(scale=1e3, size=(40, 3)) * 10.0 ** rng.integers(-8, 8, (40, 3))
        s = make_sample(cells, sample_id="rt")
        save_sample_set(s, tmp_path / "rt.csv")
        back = load_sample_set(tmp_path / "rt.csv")
        np.testing.assert_array_equal(back.cells, s.cells)
        assert back.marker_names == s.marker_names

    def test_cells_are_readonly(self):
        s = make_sample([[1.0, 2.0]])
        # a pickled copy too, as the worker pool returns kept cells to the parent
        for sample in (s, pickle.loads(pickle.dumps(s))):
            np.testing.assert_array_equal(sample.cells, s.cells)
            with pytest.raises(ValueError):
                sample.cells[0, 0] = 5.0

    @pytest.mark.parametrize("text, expected", [
        ("a,b\n1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),         # blank line skipped
        ("a,b\n1,2\n \n3,4\n", "row 2 has 1 fields, expected 2"),  # whitespace-only line
        ("a,b\n 1 , 2 \n", [[1.0, 2.0]]),                          # spaces around values
        ('a,b\n"1",2\n', [[1.0, 2.0]]),                            # quoted value
        ("a,b\n1_0,2\n", [[10.0, 2.0]]),                           # only float() parses it
        ("a,b\n\u0661,2\n", [[1.0, 2.0]]),                         # non-ASCII digit
        ("a,b\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),       # CRLF
        ("a,b\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),              # CR only
        ("a,b\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),               # no final newline
        ("a,b\n1,2,\n", "row 1 has 3 fields, expected 2"),         # trailing comma
        ("a,b\n1\n3,4\n", "row 1 has 1 fields, expected 2"),       # short first row
        ("a,b\n1,\n", "non-numeric value at row 1, column 2"),     # empty field
        ("a,b\n1,2\n#1,2\n", "non-numeric value at row 2, column 1"),  # not a comment
        ("a,b\n0x10,2\n", "non-numeric value at row 1, column 1"),
        ("a,b\n1,+inf\n", "non-finite value at row 1, column 2"),
        ("a,b\n1e400,2\n", "non-finite value at row 1, column 1"),
        ("a\n1.5\n-2\n", [[1.5], [-2.0]]),                         # one column
    ])
    def test_ingest_edge_cases(self, tmp_path, text, expected):
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(DataError) as err:
                load_sample_set(p)
            assert str(err.value) == f"{p}: {expected}"
        else:
            np.testing.assert_array_equal(load_sample_set(p).cells, expected)

    def test_parsed_doubles_match_float_bit_for_bit(self, tmp_path, rng, monkeypatch):
        bits = rng.integers(0, 2**63, size=20_000, dtype=np.uint64)
        bits[rng.random(bits.size) < 0.5] |= np.uint64(1 << 63)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        values = np.concatenate([values, [-0.0, 0.0, 5e-324, 2.2250738585072009e-308,
                                          np.finfo(float).max, -np.finfo(float).max]])
        values = values[:values.size // 4 * 4].reshape(-1, 4)
        lines = [",".join(format(v, ".17g") for v in row) for row in values]
        p = write(tmp_path / "a.csv", "a,b,c,d\n" + "\n".join(lines) + "\n")
        expected = np.array([[float(v) for v in ln.split(",")] for ln in lines])

        def no_scan(*args):
            raise AssertionError("well-formed file fell back to the row scan")

        monkeypatch.setattr("setkernel.data._scan_rows", no_scan)
        assert load_sample_set(p).cells.tobytes() == expected.tobytes()

    def test_repeated_marker_rejected(self, tmp_path):
        p = write(tmp_path / "a.csv", "a,a,b\n1,2,3\n4,5,6\n")
        for expected in (None, ("a", "a", "b")):
            with pytest.raises(DataError) as err:
                load_sample_set(p, expected_markers=expected)
            assert str(err.value) == f"{p}: marker 'a' appears more than once in the header"


class TestManifest:
    def _write_dataset(self, tmp_path, labels=("ctrl", "case", "ctrl", "case")):
        entries = []
        for i, label in enumerate(labels):
            rel = f"s{i}.csv"
            write(tmp_path / rel, f"CD3,CD4\n{i}.0,1.0\n2.0,{i}.5\n")
            entries.append((f"s{i}", rel, label))
        write_manifest(entries, tmp_path / "manifest.csv")
        return tmp_path / "manifest.csv"

    def test_lexicographic_label_mapping(self, tmp_path):
        manifest = self._write_dataset(tmp_path)
        ds = load_manifest(manifest)
        assert ds.N == 4
        assert ds.label_names == {-1: "case", +1: "ctrl"}
        assert ds.labels == (+1, -1, +1, -1)

    def test_mapping_is_deterministic(self, tmp_path):
        manifest = self._write_dataset(tmp_path)
        a = load_manifest(manifest)
        b = load_manifest(manifest)
        assert a.labels == b.labels
        assert a.label_names == b.label_names

    def test_three_label_values_rejected(self, tmp_path):
        manifest = self._write_dataset(tmp_path, labels=("a", "b", "c", "a"))
        with pytest.raises(DataError, match="exactly two label values"):
            load_manifest(manifest)

    def test_single_sample_rejected(self, tmp_path):
        write(tmp_path / "s0.csv", "CD3\n1.0\n")
        write_manifest([("s0", "s0.csv", "a")], tmp_path / "m.csv")
        with pytest.raises(DataError, match="2 required"):
            load_manifest(tmp_path / "m.csv")

    def test_inconsistent_markers_rejected(self, tmp_path):
        write(tmp_path / "s0.csv", "CD3,CD4\n1.0,2.0\n")
        write(tmp_path / "s1.csv", "CD3,CD8\n1.0,2.0\n")
        write_manifest([("s0", "s0.csv", "a"), ("s1", "s1.csv", "b")], tmp_path / "m.csv")
        with pytest.raises(DataError, match="marker mismatch"):
            load_manifest(tmp_path / "m.csv")

    def test_missing_sample_file(self, tmp_path):
        write(tmp_path / "s0.csv", "CD3\n1.0\n")
        write_manifest([("s0", "s0.csv", "a"), ("s1", "gone.csv", "b")], tmp_path / "m.csv")
        with pytest.raises(DataError, match="cannot read"):
            load_manifest(tmp_path / "m.csv")

    def test_bad_header(self, tmp_path):
        write(tmp_path / "m.csv", "id,file,y\nx,y,z\n")
        with pytest.raises(DataError, match="manifest header"):
            load_manifest(tmp_path / "m.csv")

    def test_duplicate_sample_id_rejected(self, tmp_path):
        from setkernel.cli import EXIT_DATA, main

        manifest = self._write_dataset(tmp_path)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("s0,s2.csv,case\n")
        with pytest.raises(DataError, match="repeats sample_id 's0'"):
            load_manifest(manifest)
        assert main(["train", "--manifest", str(manifest), "--model", str(tmp_path / "m.txt"),
                     "--D", "16", "--out", str(tmp_path / "t")]) == EXIT_DATA

    def test_empty_sample_id_rejected(self, tmp_path):
        # before, the file stem "s2" silently stood in for the missing id
        manifest = self._write_dataset(tmp_path)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write(" ,s2.csv,case\n")
        with pytest.raises(DataError, match="manifest row 5 has an empty sample_id"):
            read_manifest(manifest)

    def test_stem_stands_in_only_for_no_id(self, tmp_path):
        write(tmp_path / "a.csv", "CD3\n1.0\n")
        assert load_sample_set(tmp_path / "a.csv").sample_id == "a"
        assert load_sample_set(tmp_path / "a.csv", sample_id="").sample_id == ""

    def test_repeated_marker_exit_3(self, tmp_path, capsys):
        from setkernel.cli import EXIT_DATA, main

        for i in range(4):
            write(tmp_path / f"s{i}.csv", "a,a,b\n1,2,3\n4,5,6\n")
        write_manifest([(f"s{i}", f"s{i}.csv", "ab"[i % 2]) for i in range(4)],
                       tmp_path / "m.csv")
        with pytest.raises(DataError, match="marker 'a' appears more than once"):
            load_manifest(tmp_path / "m.csv")
        assert main(["train", "--manifest", str(tmp_path / "m.csv"), "--D", "16",
                     "--model", str(tmp_path / "m.txt"),
                     "--out", str(tmp_path / "t")]) == EXIT_DATA
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_expected_markers_align_every_sample(self, tmp_path):
        manifest = self._write_dataset(tmp_path)
        samples = read_aligned(manifest, ("CD4", "CD3"))
        assert {s.marker_names for s in samples} == {("CD4", "CD3")}
        np.testing.assert_array_equal(samples[1].cells, [[1.0, 1.0], [1.5, 2.0]])
        with pytest.raises(DataError, match="marker mismatch"):
            read_aligned(manifest, ("CD4", "CD8"))


class TestStandardizer:
    def test_hand_computed(self):
        s = make_sample([[0.0, 0.0], [2.0, 2.0]])
        std = fit_standardizer([s])
        np.testing.assert_allclose(std.mean, [1.0, 1.0])
        np.testing.assert_allclose(std.std, [1.0, 1.0])

    def test_constant_feature_gets_unit_std(self):
        s = make_sample([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        std = fit_standardizer([s])
        assert std.std[1] == 1.0
        assert std.mean[1] == 5.0

    def test_pooling_matches_concatenation(self, rng):
        a = make_sample(rng.normal(size=(7, 3)), "a")
        b = make_sample(rng.normal(size=(11, 3)), "b")
        pooled = fit_standardizer([a, b])
        concat = fit_standardizer([make_sample(np.vstack([a.cells, b.cells]))])
        np.testing.assert_allclose(pooled.mean, concat.mean, rtol=0, atol=1e-15)
        np.testing.assert_allclose(pooled.std, concat.std, rtol=0, atol=1e-15)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            fit_standardizer([])

    def test_carried_column_sums_reproduce_the_pooled_bits(self, rng):
        # numpy reduces axis 0 of a C-ordered array row by row, so a stream that
        # carries its running column sums in as the first row of each sample's
        # reduction adds in the pooled order; per-sample partial sums do not.
        sizes = [1, *rng.integers(2, 8000, size=11)]
        samples = [make_sample(np.column_stack([rng.normal(3.0, 2.0, size=(n, 29)) * 40,
                                                np.full(n, 5.0)]), f"s{i}")
                   for i, n in enumerate(sizes)]

        def carried(blocks):
            acc = None
            for b in blocks:
                acc = np.add.reduce(b if acc is None else np.concatenate([acc[None], b]), axis=0)
            return acc

        n = sum(sizes)
        mean = carried(s.cells for s in samples) / n
        std = np.sqrt(carried((s.cells - mean) * (s.cells - mean) for s in samples) / n)
        std = np.where(std > 0.0, std, 1.0)
        fitted = fit_standardizer(samples)
        assert mean.tobytes() == fitted.mean.tobytes()
        assert std.tobytes() == fitted.std.tobytes()
        partial = sum(s.cells.sum(axis=0) for s in samples) / n
        assert partial.tobytes() != fitted.mean.tobytes()

    def test_apply_hand_case(self):
        std = fit_standardizer([make_sample([[0.0, 0.0], [2.0, 2.0]])])
        out = apply_standardizer(std, make_sample([[2.0, 2.0]]))
        np.testing.assert_allclose(out.cells, [[1.0, 1.0]])

    def test_identity_standardizer(self, rng):
        from setkernel import Standardizer

        ident = Standardizer(mean=np.zeros(3), std=np.ones(3))
        s = make_sample(rng.normal(size=(5, 3)))
        out = apply_standardizer(ident, s)
        np.testing.assert_array_equal(out.cells, s.cells)

    def test_training_pool_becomes_standard(self, rng):
        sets = [make_sample(rng.normal(loc=3.0, scale=2.5, size=(50, 4)), f"s{i}")
                for i in range(3)]
        std = fit_standardizer(sets)
        pooled = np.vstack([apply_standardizer(std, s).cells for s in sets])
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-12)

    def test_inverse_recovers_input(self, rng):
        sets = [make_sample(rng.normal(size=(20, 3)) * 100)]
        std = fit_standardizer(sets)
        out = apply_standardizer(std, sets[0])
        recovered = out.cells * std.std + std.mean
        np.testing.assert_allclose(recovered, sets[0].cells, rtol=1e-12)

    def test_dimension_mismatch(self):
        std = fit_standardizer([make_sample([[1.0, 2.0]])])
        with pytest.raises(ValueError, match="does not match"):
            apply_standardizer(std, make_sample([[1.0, 2.0, 3.0]]))


class TestArcsinh:
    def test_zero_maps_to_zero(self):
        out = arcsinh_transform(make_sample([[0.0]]), cofactor=5.0)
        assert out.cells[0, 0] == 0.0

    def test_unit_ratio_value(self):
        # independent oracle: asinh(1) = ln(1 + sqrt(2))
        expected = math.log(1.0 + math.sqrt(2.0))
        out = arcsinh_transform(make_sample([[5.0]]), cofactor=5.0)
        assert out.cells[0, 0] == pytest.approx(expected, abs=1e-15)
        assert out.cells[0, 0] == pytest.approx(0.881373587, abs=1e-9)

    def test_odd_symmetry(self, rng):
        vals = rng.normal(scale=10, size=(6, 2))
        pos = arcsinh_transform(make_sample(vals), cofactor=3.0)
        neg = arcsinh_transform(make_sample(-vals), cofactor=3.0)
        np.testing.assert_allclose(neg.cells, -pos.cells, rtol=0, atol=0)

    def test_nonpositive_cofactor(self):
        with pytest.raises(ValueError, match="positive"):
            arcsinh_transform(make_sample([[1.0]]), cofactor=0.0)


class TestSampleSetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet(cells=np.array([[np.nan]]), sample_id="x", marker_names=("a",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet(cells=np.empty((0, 2)), sample_id="x", marker_names=("a", "b"))

    def test_marker_count_checked(self):
        with pytest.raises(ValueError, match="marker names"):
            SampleSet(cells=np.ones((2, 2)), sample_id="x", marker_names=("a",))


class TestSaveSampleSet:
    def test_bytes_match_csv_writer(self, tmp_path):
        # oracle: the csv.writer row loop with format(v, ".17g") per value
        bits = np.random.default_rng(9).integers(0, 2**64, size=600, dtype=np.uint64)
        tiny = np.finfo(np.float64).smallest_subnormal
        big = np.finfo(np.float64).max
        special = [0.0, -0.0, tiny, -tiny, 3 * tiny, 2.2250738585072009e-308, big, -big,
                   np.inf, -np.inf, np.nan, -np.nan, 0.1, 1e16, 123456789.0, -1.5]
        cells = np.concatenate([bits.view(np.float64), special, special[:2]]).reshape(-1, 3)
        # a stand-in: SampleSet itself rejects inf and nan
        sample = SimpleNamespace(cells=cells, d=3, marker_names=("CD3", 'a "b"', "x,y"))
        save_sample_set(sample, tmp_path / "fast.csv")
        with open(tmp_path / "oracle.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(sample.marker_names)
            for row in cells:
                writer.writerow([format(v, ".17g") for v in row])
        data = (tmp_path / "fast.csv").read_bytes()
        assert data == (tmp_path / "oracle.csv").read_bytes()
        assert data.count(b"\r\n") == cells.shape[0] + 1


_MODEL_MARKERS = ("f0", "f1")  # the markers of the checked-in v1 model
_token = st.one_of(
    st.sampled_from(["f0", "f1", "", " 1", "1e400", "nan", "-inf", "0x1p3", '"', '"2"', "1_0"]),
    st.floats().map(repr), st.integers().map(str), st.text(max_size=6))
_csv_lines = st.lists(st.lists(_token, max_size=4).map(",".join), max_size=6)
_sample_bytes = st.one_of(
    st.binary(max_size=80),
    _csv_lines.map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.tuples(_csv_lines, st.binary(max_size=6)).map(
        lambda t: "\r\n".join(["f0,f1"] + t[0]).encode("utf-8") + t[1]))
# Sample paths a fuzzed manifest may name, all relative to its directory.
_SAMPLE_NAMES = ["probe.csv", "bad.csv", "missing.csv", "sub/../probe.csv", ".", "pro\x00be.csv"]
_manifest_row = st.tuples(st.one_of(st.sampled_from(["a", "b", "a/b", ""]), st.text(max_size=4)),
                          st.sampled_from(_SAMPLE_NAMES),
                          st.one_of(st.sampled_from(["neg", "pos", "x"]), st.text(max_size=3)))
_manifest_bytes = st.one_of(
    st.binary(max_size=80),
    st.lists(_manifest_row, max_size=5).map(
        lambda rows: "\n".join(["sample_id,path,label"] + [",".join(r) for r in rows])
        .encode("utf-8")),
    st.tuples(st.lists(_manifest_row, max_size=4), st.binary(max_size=6)).map(
        lambda t: ("sample_id,path,label\r\n" + "\r\n".join(",".join(r) for r in t[0]))
        .encode("utf-8") + t[1]))


def _predict_exit(argv):
    """Exit code and stderr of `setkernel predict` under the v1 model."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["predict", "--model", str(MODEL_V1)] + argv)
    return code, err.getvalue()


class TestParserFuzz:
    """Any sample or manifest file loads or raises a DataError; the CLI turns a
    bad one into exit 3 with one line naming the file, never a traceback."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("parser_fuzz")
        write(work / "probe.csv", "f0,f1\n0.5,1.5\n")
        write(work / "bad.csv", "f0,f1\n0.5,abc\n")
        return work

    @settings(max_examples=200, deadline=None)
    @given(raw=_sample_bytes)
    def test_sample_file(self, work, raw):
        path = work / "sample.csv"
        path.write_bytes(raw)
        try:
            load_sample_set(path, expected_markers=_MODEL_MARKERS)
        except DataError as e:
            assert str(path) in str(e) and "\n" not in str(e)
            expected = EXIT_DATA
        else:
            expected = None
        code, err = _predict_exit(["--out", str(work / "o"), str(path)])
        if expected is None:
            assert code != EXIT_DATA
        else:
            assert code == EXIT_DATA
            assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err

    @settings(max_examples=200, deadline=None)
    @given(raw=_manifest_bytes)
    def test_manifest_file(self, work, raw):
        path = work / "manifest.csv"
        path.write_bytes(raw)
        named = [str(path)] + [str(work / name) for name in _SAMPLE_NAMES]
        try:
            read_aligned(path, _MODEL_MARKERS)
        except DataError as e:
            assert any(p in str(e) for p in named) and "\n" not in str(e)
            expected = EXIT_DATA
        else:
            expected = EXIT_OK
        code, err = _predict_exit(["--out", str(work / "o"), "--manifest", str(path)])
        assert code == expected
        if expected == EXIT_DATA:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert any(p in err for p in named)

    @pytest.mark.parametrize("text", ["f" * 200_000 + ",f1\n1,2\n",
                                      "f0,f1\n" + "x" * 200_000 + ",2\n"])
    def test_field_over_csv_limit_is_data_error(self, tmp_path, text):
        path = write(tmp_path / "big.csv", text)
        with pytest.raises(DataError, match="field larger than field limit"):
            load_sample_set(path)
        manifest = write(tmp_path / "m.csv", "sample_id,path,label\n" + text)
        with pytest.raises(DataError, match="cannot read manifest"):
            load_manifest(manifest)

    def test_nul_in_sample_path_is_data_error(self, tmp_path):
        write(tmp_path / "probe.csv", "f0,f1\n1,2\n")
        manifest = write(tmp_path / "m.csv",
                         "sample_id,path,label\na,pro\x00be.csv,x\nb,probe.csv,y\n")
        with pytest.raises(DataError, match="cannot read sample file .*embedded null byte"):
            load_manifest(manifest)
