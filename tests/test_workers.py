"""The fork pool that every map over two or more samples runs in (setkernel.workers).

Every command's outputs are byte-identical whether its samples run in the
pool or in-process, whatever the selection method; the first failing sample
in manifest order decides the error; and no worker process or changed BLAS
thread count outlives a command, not even when a worker is killed.
"""

import os
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from setkernel import classifier, data, herding, workers
from setkernel.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from setkernel.herding import DEFAULT_CACHE_BYTES

HERDING = ["--D", "32", "--m", "8", "--gamma", "3", "--seed", "5"]
SELECTIONS = {"herding": HERDING,
              "uniform": HERDING + ["--subsample-method", "uniform"],
              "all": ["--D", "32", "--m", "all", "--gamma", "3", "--seed", "5"]}
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
    return pool(monkeypatch)


def pool(monkeypatch):
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


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds):
    """TimeoutError where the block runs longer than seconds, so a hang fails a test."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def log_calls(monkeypatch, log):
    """Each sample read, selection and herd appends a line to the file log: what
    ran, in which process, with how many BLAS threads, beside how many workers,
    and, for a herd, with the cache budget it applies (the budget herding hands
    _trig_source). Returns a reader that empties it."""

    def logged(what, fn, cache=lambda *args: "-"):
        def call(*args, **kwargs):
            threads = workers.blas_threads()
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{what} {os.getpid()} {threads and threads[1]()} "
                         f"{workers.in_flight()} {cache(*args)}\n")
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(data, "load_sample_set", logged("read", data.load_sample_set))
    monkeypatch.setattr(classifier.Pipeline, "select",
                        logged("select", classifier.Pipeline.select))
    monkeypatch.setattr(herding, "_trig_source",
                        logged("herd", herding._trig_source, lambda *args: args[2]))

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
        tmp_path, monkeypatch, capsys, preprocessing):
    manifest = write_cohort(tmp_path)
    parent = str(os.getpid())
    for selection, flags in SELECTIONS.items():
        flags = flags + ["--preprocessing", preprocessing]
        root = tmp_path / selection
        model = str(root / "model.txt")
        monkeypatch.undo()  # the last selection's in-process run
        restored = pool(monkeypatch)
        k = str(min(6, workers._usable_cpus()))
        read_log = log_calls(monkeypatch, tmp_path / "calls.log")
        assert main(["train", "--manifest", manifest, "--model", model, "--out",
                     str(root / "fixture")] + flags) == EXIT_OK
        read_log()
        capsys.readouterr()
        commands = {
            # two runs of three folds; under standardize each fold fits its own standardizer
            "crossval": ["crossval", "--manifest", manifest, "--folds", "3", "--runs", "2"]
                        + flags,
            "train": ["train", "--manifest", manifest, "--model", "OUT/model.txt"] + flags,
            "featurize": ["featurize", "--manifest", manifest] + flags,
            "herd": ["herd", "--manifest", manifest] + flags,
            "predict": ["predict", "--manifest", manifest, "--model", model],
            "interpret": ["interpret", "--manifest", manifest, "--model", model,
                          "--clusters-C", "3"],
        }
        written, printed = {}, {}
        for way in ("pooled", "in_process"):
            if way == "in_process":
                in_process(monkeypatch)
            for name, argv in commands.items():
                out = root / way / name
                argv = [a.replace("OUT", str(out)) for a in argv]
                assert main(argv + ["--out", str(out)]) == EXIT_OK, (selection, way, name)
                assert_no_child()
                printed[way, name] = capsys.readouterr().out.replace(str(root / way), "")
                calls = read_log()
                where = {(what, pid == parent) for what, pid, *_ in calls}
                # every command reads and selects its six samples, and only herding herds
                assert [c[0] for c in calls].count("read") == 6, (selection, way, name)
                assert {what for what, _ in where} == \
                    {"read", "select"} | ({"herd"} if selection == "herding" else set())
                if way == "pooled":
                    assert restored(), name  # the parent's BLAS thread count is restored
                    # each worker reads and selects with one BLAS thread, beside k - 1
                    # others, and herds with its share of the cache
                    assert not any(in_parent for _, in_parent in where), (selection, name)
                    assert {(threads, flight) for _, _, threads, flight, _ in calls} == \
                        {("1", k)}, (selection, name)
                    assert {c[4] for c in calls if c[0] == "herd"} <= \
                        {str(DEFAULT_CACHE_BYTES // int(k))}
                else:
                    assert all(in_parent for _, in_parent in where), (selection, name)
                    assert {c[4] for c in calls if c[0] == "herd"} <= {str(DEFAULT_CACHE_BYTES)}
            written[way] = outputs(root / way)
        assert written["pooled"] == written["in_process"], selection
        assert len(written["pooled"]) >= 6 + 2 * 6  # every command's files, meta.txt included
        for name in commands:
            assert printed["pooled", name] == printed["in_process", name], (selection, name)


def train_model(tmp_path, capsys):
    """A herding model trained on a clean cohort of its own; returns its path."""
    clean = tmp_path / "clean"
    clean.mkdir()
    model = str(tmp_path / "model.txt")
    assert main(["train", "--manifest", write_cohort(clean), "--model", model,
                 "--out", str(tmp_path / "fixture")] + HERDING) == EXIT_OK
    capsys.readouterr()
    return model


def run_both(tmp_path, monkeypatch, capsys, argv):
    """Exit code and stderr of argv pooled, then in-process; no process is left."""
    results = []
    for way in ("pooled", "in_process"):
        if way == "in_process":
            in_process(monkeypatch)
        code = main(argv + ["--out", str(tmp_path / way)])
        assert_no_child()
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
    model = train_model(tmp_path, capsys)
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
    model = train_model(tmp_path, capsys)
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


def test_a_killed_worker_fails_the_command_naming_its_sample(
        tmp_path, monkeypatch, pooled, capsys):
    model = train_model(tmp_path, capsys)
    manifest = write_cohort(tmp_path)
    parent, load = os.getpid(), data.load_sample_set

    def killed_at_s3(path, expected_markers=None, sample_id=None):
        if sample_id == "s3" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return load(path, expected_markers, sample_id)

    monkeypatch.setattr(data, "load_sample_set", killed_at_s3)
    with deadline(60):
        code = main(["predict", "--manifest", manifest, "--model", model,
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (f"error: sample 's3': its worker process ended "
                                       f"(signal {signal.SIGKILL}) without a result\n")
    assert_no_child()
    assert pooled()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["predict", "train"])
def test_a_data_error_in_a_worker_prints_one_line_from_the_parent(
        tmp_path, monkeypatch, pooled, capfd, command):
    # capfd, not capsys: a worker writes to the inherited descriptors, not to
    # this process's sys.stdout and sys.stderr
    model = train_model(tmp_path, capfd)
    manifest = write_cohort(tmp_path)
    (tmp_path / "s3.csv").write_text("a,b,c\n1,2,3\n1,2,x\n")
    argv = {"predict": ["predict", "--manifest", manifest, "--model", model],
            "train": ["train", "--manifest", manifest, "--model", str(tmp_path / "m.txt")]
            + HERDING}[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_DATA
    assert capfd.readouterr() == ("", f"error: {tmp_path / 's3.csv'}: non-numeric value "
                                      "at row 2, column 3\n")
    assert_no_child()


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
                time.sleep(0.3)  # item 2, in another worker, fails first in time
                raise ValueError("item 1")
            if x == 2:
                raise KeyError("item 2")
            return x

        with pytest.raises(ValueError, match="item 1"):
            workers.map_items(fn, range(6))
        assert_no_child()

    def test_an_error_in_each_stops_the_map(self, pooled):
        seen = []

        def each(r):
            seen.append(r)
            if r == 2:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            workers.map_items(lambda x: x, range(8), each=each)
        assert seen == [0, 1, 2]
        assert_no_child()

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

    @pytest.mark.parametrize("several_cpus, items", [(False, range(4)), (True, range(1))])
    def test_unpooled_or_single_item_maps_run_here(self, monkeypatch, pooled, several_cpus,
                                                   items):
        if not several_cpus:
            monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
        assert set(workers.map_items(lambda x: os.getpid(), items)) == {os.getpid()}

    def test_a_killed_worker_raises_naming_its_item_and_leaves_no_child(self, pooled):
        def fn(x):
            if x == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        with deadline(60), pytest.raises(ChildProcessError) as raised:
            workers.map_items(fn, range(8))
        assert str(raised.value) == \
            f"item 3: its worker process ended (signal {signal.SIGKILL}) without a result"
        assert_no_child()
        assert pooled()

    def test_an_exception_that_cannot_travel_arrives_as_its_text(self, pooled):
        def fn(x):
            if x == 1:
                raise ValueError("local", lambda: x)  # a lambda does not pickle
            return x

        with pytest.raises(RuntimeError, match=r"^ValueError: \('local', <function"):
            workers.map_items(fn, range(4))
        assert_no_child()

    def test_without_the_setter_every_map_runs_here(self, monkeypatch):
        in_process(monkeypatch)
        assert workers.map_items(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4

    def test_the_setter_is_found_for_an_openblas_numpy(self):
        # numpy's wheels bundle OpenBLAS: without its setter every map runs in-process
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
        found = workers.blas_threads() is not None
        assert found == ("openblas" in blas and os.path.exists("/proc/self/maps"))
