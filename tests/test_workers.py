"""The fork pool that herding chains run in (setkernel.workers).

Every command's outputs are byte-identical whether its samples run in the
pool or in-process; the first failing sample in manifest order decides the
error; and no worker process or changed BLAS thread count outlives a command.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from setkernel import classifier, workers
from setkernel.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from setkernel.herding import DEFAULT_CACHE_BYTES

HERDING = ["--D", "32", "--m", "8", "--gamma", "3", "--seed", "5"]
# The BLAS thread count of this process, read when pytest imports this module,
# before any test has run a pool; every pool must leave it so.
NUMPY_BLAS = workers.blas_threads()
START_THREADS = NUMPY_BLAS and NUMPY_BLAS[1]()


class Threads:
    """A BLAS thread-count setter and getter, for a host whose numpy has no OpenBLAS."""

    def __init__(self):
        self.count = 2

    def set(self, n):
        self.count = n

    def get(self):
        return self.count


@pytest.fixture
def pooled(monkeypatch):
    """The pool runs, with at least two workers. Returns a check that the BLAS
    thread count is the one this process started with."""
    cpus = workers._usable_cpus()
    monkeypatch.setattr(workers, "_usable_cpus", lambda: max(2, cpus))
    if NUMPY_BLAS is not None:
        return lambda: NUMPY_BLAS[1]() == START_THREADS
    fake = Threads()
    monkeypatch.setattr(workers, "blas_threads", lambda: (fake.set, fake.get))
    return lambda: fake.get() == 2


def in_process(monkeypatch):
    """The setter lookup finds nothing, so every map runs in this process."""
    monkeypatch.setattr(workers, "blas_threads", lambda: None)


@pytest.fixture
def herd_log(monkeypatch, tmp_path):
    """Each herd appends its pid, cache budget and BLAS thread count to a file."""
    log = tmp_path / "herds.log"
    herd = classifier.herd

    def logged(rmap, sample, m, max_cache_bytes):
        threads = workers.blas_threads()
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {max_cache_bytes} {threads and threads[1]()}\n")
        return herd(rmap, sample, m, max_cache_bytes)

    monkeypatch.setattr(classifier, "herd", logged)

    def read():
        lines = log.read_text().split("\n")[:-1] if log.exists() else []
        log.unlink(missing_ok=True)
        return [tuple(line.split()) for line in lines]

    return read


def write_cohort(root, bad=None):
    """Six 40-cell, 3-marker samples s0..s5, three per label, and their manifest.

    bad maps a sample index to the cells written in its place, or to None
    for a file that is not written.
    """
    rng = np.random.default_rng(17)
    rows = []
    for i in range(6):
        label = "neg" if i % 2 == 0 else "pos"
        cells = rng.normal(size=(40, 3)) + (2.0 if label == "pos" else 0.0)
        cells = (bad or {}).get(i, cells)
        if cells is not None:
            np.savetxt(root / f"s{i}.csv", cells, delimiter=",", header="a,b,c",
                       comments="")
        rows.append(f"s{i},s{i}.csv,{label}")
    (root / "manifest.csv").write_text("sample_id,path,label\n" + "\n".join(rows) + "\n")
    return str(root / "manifest.csv")


def outputs(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("preprocessing", ["none", "arcsinh:5", "standardize"])
def test_every_command_writes_the_same_bytes_pooled_and_in_process(
        tmp_path, monkeypatch, pooled, herd_log, capsys, preprocessing):
    manifest = write_cohort(tmp_path)
    flags = HERDING + ["--preprocessing", preprocessing]
    model = str(tmp_path / "model.txt")
    assert main(["train", "--manifest", manifest, "--model", model, "--out",
                 str(tmp_path / "fixture")] + flags) == EXIT_OK
    herd_log()
    capsys.readouterr()
    commands = {
        # two runs of three folds; under standardize each fold fits its own standardizer
        "crossval": ["crossval", "--manifest", manifest, "--folds", "3", "--runs", "2"] + flags,
        "train": ["train", "--manifest", manifest, "--model", "OUT/model.txt"] + flags,
        "featurize": ["featurize", "--manifest", manifest] + flags,
        "herd": ["herd", "--manifest", manifest] + flags,
        "predict": ["predict", "--manifest", manifest, "--model", model],
        "interpret": ["interpret", "--manifest", manifest, "--model", model,
                      "--clusters-C", "3"],
    }
    parent = str(os.getpid())
    k = min(6, workers._usable_cpus())
    written, printed = {}, {}
    for way in ("pooled", "in_process"):
        if way == "in_process":
            in_process(monkeypatch)
        for name, argv in commands.items():
            out = tmp_path / way / name
            argv = [a.replace("OUT", str(out)) for a in argv]
            assert main(argv + ["--out", str(out)]) == EXIT_OK, (way, name)
            assert pooled(), name  # the parent's BLAS thread count is restored
            assert multiprocessing.active_children() == []
            printed[way, name] = capsys.readouterr().out.replace(str(tmp_path / way), "")
            herds = herd_log()
            assert herds, (way, name)
            if way == "pooled":
                # each worker herds with its share of the cache and one BLAS thread
                assert all(pid != parent for pid, _, _ in herds), name
                assert {(cache, threads) for _, cache, threads in herds} == \
                    {(str(DEFAULT_CACHE_BYTES // k), "1")}, name
            else:
                assert {(pid, cache) for pid, cache, _ in herds} == \
                    {(parent, str(DEFAULT_CACHE_BYTES))}, name
        written[way] = outputs(tmp_path / way)
    assert written["pooled"] == written["in_process"]
    assert len(written["pooled"]) >= 6 + 2 * 6  # every command's files, meta.txt included
    for name in commands:
        assert printed["pooled", name] == printed["in_process", name]


def run_both(tmp_path, monkeypatch, capsys, argv):
    """Exit code and stderr of argv pooled, then in-process; no process is left."""
    results = []
    for way in ("pooled", "in_process"):
        if way == "in_process":
            in_process(monkeypatch)
        code = main(argv + ["--out", str(tmp_path / way)])
        assert multiprocessing.active_children() == []
        results.append((code, capsys.readouterr().err))
    assert results[0] == results[1]
    return results[0]


BIG = np.full((40, 3), 1.0)
BIG[5] = 1e308  # X @ W overflows float64


@pytest.mark.parametrize("first, second, code, message", [
    (BIG, None, EXIT_NUMERICAL, "error: sample 's1': X @ W overflows float64"),
    (None, BIG, EXIT_DATA, "error: cannot read sample file"),
])
def test_first_failing_sample_in_manifest_order_decides_predict(
        tmp_path, monkeypatch, pooled, capsys, first, second, code, message):
    clean = tmp_path / "clean"
    clean.mkdir()
    model = str(tmp_path / "model.txt")
    assert main(["train", "--manifest", write_cohort(clean), "--model", model,
                 "--out", str(tmp_path / "fixture")] + HERDING) == EXIT_OK
    capsys.readouterr()
    manifest = write_cohort(tmp_path, {1: first, 3: second})
    got_code, err = run_both(tmp_path, monkeypatch, capsys,
                             ["predict", "--manifest", manifest, "--model", model])
    assert got_code == code and err.startswith(message), err
    assert "s1" in err and "s3.csv" not in err and "'s3'" not in err
    assert err.count("\n") == 1


def test_first_failing_sample_in_manifest_order_decides_herd(
        tmp_path, monkeypatch, pooled, capsys):
    late = BIG.copy()
    late[5] = [1e60, 0.5, 0.5]  # finite X @ W whose phase is not finite in float32
    manifest = write_cohort(tmp_path, {1: BIG, 3: late})
    code, err = run_both(tmp_path, monkeypatch, capsys, ["herd", "--manifest", manifest]
                         + HERDING)
    assert code == EXIT_NUMERICAL
    assert err.startswith("error: sample 's1': X @ W overflows float64"), err
    assert not (tmp_path / "pooled").exists()


def test_interpret_pools_kept_cells_in_manifest_order(tmp_path, monkeypatch, pooled, capsys):
    # s1 keeps all its 5 cells (n <= m) and they are too large for k-means, which the
    # parent finds as s1's cells join the pool, before it takes s3's error
    clean = tmp_path / "clean"
    clean.mkdir()
    model = str(tmp_path / "model.txt")
    assert main(["train", "--manifest", write_cohort(clean), "--model", model,
                 "--out", str(tmp_path / "fixture")] + HERDING) == EXIT_OK
    capsys.readouterr()
    manifest = write_cohort(tmp_path, {1: np.full((5, 3), 1e154), 3: BIG})
    code, err = run_both(tmp_path, monkeypatch, capsys,
                         ["interpret", "--manifest", manifest, "--model", model])
    assert code == EXIT_NUMERICAL
    assert err.startswith("error: sample 's1': cells too large for k-means"), err


def test_predict_aligns_columns_to_the_first_sample_without_model_markers(
        tmp_path, monkeypatch, pooled, capsys):
    # a model file with empty marker_names: the workers take the first sample's
    # column order, which the parent fixes before they start
    manifest = write_cohort(tmp_path)
    model = tmp_path / "model.txt"
    assert main(["train", "--manifest", manifest, "--model", str(model),
                 "--out", str(tmp_path / "fixture")] + HERDING) == EXIT_OK
    text = model.read_text()
    assert "\nmarker_names a,b,c\n" in text
    (tmp_path / "named.txt").write_text(text)
    model.write_text(text.replace("\nmarker_names a,b,c\n", "\nmarker_names \n"))
    for i in range(1, 6):  # every sample after the first: c,a,b
        cells = np.loadtxt(tmp_path / f"s{i}.csv", delimiter=",", skiprows=1)
        np.savetxt(tmp_path / f"s{i}.csv", cells[:, [2, 0, 1]], delimiter=",",
                   header="c,a,b", comments="")
    written = []
    for way in ("pooled", "in_process"):
        if way == "in_process":
            in_process(monkeypatch)
        assert main(["predict", "--manifest", manifest, "--model", str(model),
                     "--out", str(tmp_path / way)]) == EXIT_OK
        written.append((tmp_path / way / "predictions.csv").read_bytes())
    assert written[0] == written[1]
    # the same decisions as with the model's own marker order, a,b,c
    assert main(["predict", "--manifest", manifest, "--model", str(tmp_path / "named.txt"),
                 "--out", str(tmp_path / "named")]) == EXIT_OK
    assert (tmp_path / "named" / "predictions.csv").read_bytes() == written[0]


class TestMapItems:

    def test_results_and_each_follow_input_order(self, pooled):
        seen = []
        assert workers.map_items(lambda x: (x * x, os.getpid()), range(7),
                                 each=seen.append) == seen
        assert [r[0] for r in seen] == [x * x for x in range(7)]
        assert os.getpid() not in {r[1] for r in seen}

    def test_first_item_in_order_that_raises_decides(self, pooled):
        def fn(x):
            if x == 1:
                time.sleep(0.3)  # item 3 fails first in time
                raise ValueError("item 1")
            if x == 3:
                raise KeyError("item 3")
            return x

        with pytest.raises(ValueError, match="item 1"):
            workers.map_items(fn, range(6))
        assert multiprocessing.active_children() == []

    def test_an_error_in_each_stops_the_map(self, pooled):
        seen = []

        def each(r):
            seen.append(r)
            if r == 2:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            workers.map_items(lambda x: x, range(8), each=each)
        assert seen == [0, 1, 2]
        assert multiprocessing.active_children() == []

    def test_a_map_inside_a_worker_runs_in_that_worker(self, pooled):
        k = min(4, workers._usable_cpus())
        inner = workers.map_items(
            lambda x: (os.getpid(), workers.in_flight(),
                       workers.map_items(lambda y: os.getpid(), range(3))), range(4))
        for pid, in_flight, pids in inner:
            assert pid != os.getpid() and in_flight == k and pids == [pid] * 3
        assert workers.in_flight() == 1

    def test_parent_blas_threads_are_restored(self, pooled):
        assert workers.map_items(lambda x: workers.blas_threads()[1](), range(3)) == [1] * 3
        assert pooled()
        with pytest.raises(ZeroDivisionError):
            workers.map_items(lambda x: 1 / x, range(3))
        assert pooled()

    @pytest.mark.parametrize("pooled_flag, items", [(False, range(4)), (True, range(1))])
    def test_unpooled_or_single_item_maps_run_here(self, pooled, pooled_flag, items):
        assert set(workers.map_items(lambda x: os.getpid(), items, pooled_flag)) == \
            {os.getpid()}

    def test_without_the_setter_every_map_runs_here(self, monkeypatch):
        in_process(monkeypatch)
        assert workers.map_items(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4

    def test_the_setter_is_found_for_an_openblas_numpy(self):
        # numpy's wheels bundle OpenBLAS: without its setter every map runs in-process
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        found = workers.blas_threads() is not None
        assert found == ("openblas" in blas and os.path.exists("/proc/self/maps"))
