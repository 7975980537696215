"""Per-sample maps in forked worker processes, one BLAS thread each.

A cohort's samples are read, preprocessed, selected and embedded each on
its own, so map_items runs them side by side: it forks one worker per
usable CPU, at most one per item, and worker w runs items w, w+k, w+2k, ….
The workers inherit fn and the items, so only results travel, pickled, each
worker's down its own pipe; the parent reads them in input order, item i
from pipe i % k. A worker stops at its first error, which it sends as its
result, so the first item in input order that raises decides the error; a
worker that dies before sending a result raises ChildProcessError naming
that item. A worker leaves only through os._exit, so it never unwinds into
its caller's frames, finally blocks or atexit handlers. When the map ends,
by success or error, the parent kills and reaps every worker.

This module owns the thread count of the OpenBLAS that numpy loads.
Imported before numpy, with OPENBLAS_NUM_THREADS unset, it loads numpy
with OpenBLAS on one thread, so no idle helper thread spins after each
threaded call. The variable is set only around that import, so child
processes do not inherit it. Before forking, the parent sets OpenBLAS to one thread
(OpenBLAS's own fork handler stops its threads) and restores the count
afterwards; left at more, each worker's BLAS threads contend for the same
cores and the pool runs slower than the serial map. A map of one item, or
on one usable CPU, runs in this process with one BLAS thread per usable
CPU, the one place a second thread pays (a herd's products over a large
sample), and restores the count afterwards. A map inside a worker, or
without that setter (MKL, Accelerate, a platform without /proc/self/maps),
runs in this process and changes nothing. The pool is plain os.fork and
pipes: concurrent.futures' executor cost more to import and start than the
two forks it makes.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import sys
from typing import Callable, Iterable

if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads OpenBLAS
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# (setter, getter) of the thread count: numpy's wheels bundle scipy-openblas
# with an ILP64 suffix, a system OpenBLAS has the plain names
_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
            ("openblas_set_num_threads", "openblas_get_num_threads"))

_workers = 1  # the workers of the running pooled map; forked workers inherit it


@functools.cache
def blas_threads():
    """(set, get) for the thread count of the OpenBLAS numpy loaded, or None.

    Looked up among the libraries mapped into this process; a copy that
    another wheel bundles (scipy.libs/...) is not numpy's and is passed over.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = dict.fromkeys(f[5].strip() for f in fields if len(f) == 6)
    for path in paths:
        folder = os.path.basename(os.path.dirname(path))
        if "openblas" not in os.path.basename(path) or (
                folder.endswith(".libs") and folder != "numpy.libs"):
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # only a library already loaded
        except OSError:
            continue
        for setter, getter in _SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


def in_flight() -> int:
    """The workers of the running pooled map, or 1. herding.herd takes
    1/in_flight() of its cache budget, so k herds together stay within it."""
    return _workers


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return 1


def map_items(fn: Callable, items: Iterable, each: Callable | None = None,
              name: Callable[[object], str] = lambda x: f"item {x!r}") -> list:
    """[fn(x) for x in items], in input order; each(result), when given, runs in this
    process on every result in order, before the next result is taken.

    With two or more items and usable CPUs and numpy's BLAS setter found, fn
    runs in a fork pool of min(items, usable CPUs) workers, at one BLAS
    thread each; with fewer, in this process at one BLAS thread per usable
    CPU (see the module docstring). An error, fn's or each's, stops the map
    at the first item in order that raises: no later result is taken, and
    every worker is gone before it propagates. name(item) names an item
    whose worker died.
    """
    global _workers
    items = list(items)
    threads = blas_threads() if _workers == 1 else None
    if threads is None:
        return _collect((fn(x) for x in items), each)
    set_threads, get_threads = threads
    before = get_threads()
    k = min(len(items), _usable_cpus())
    pids, pipes = [], []
    try:
        if k < 2:
            set_threads(_usable_cpus())
            return _collect((fn(x) for x in items), each)
        sys.stdout.flush()  # a worker that prints would write its copy of the buffer too
        sys.stderr.flush()
        _workers = k
        set_threads(1)
        for w in range(k):
            r, wr = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[w::k], wr, pipes)
                pids.append(pid)
            finally:
                os.close(wr)  # only the worker writes: its exit is the pipe's EOF

        def results():
            for i, item in enumerate(items):
                try:
                    ok, result = pickle.load(pipes[i % k])
                except (EOFError, pickle.UnpicklingError):
                    code = os.waitstatus_to_exitcode(os.waitpid(pids[i % k], 0)[1])
                    pids[i % k] = None
                    how = f"signal {-code}" if code < 0 else f"exit code {code}"
                    raise ChildProcessError(f"{name(item)}: its worker process ended "
                                            f"({how}) without a result") from None
                if not ok:
                    raise result
                yield result

        return _collect(results(), each)
    finally:
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fh in pipes:
            fh.close()
        set_threads(before)
        _workers = 1


def _serve(fn: Callable, mine: list, fd: int, pipes: list):
    """A worker's whole life: send (True, fn(x)) for each of its items in turn down
    fd, or (False, the exception) and stop. Never returns."""
    try:
        for fh in pipes:  # the read ends: once the parent is gone, a write fails
            os.close(fh.fileno())
        with open(fd, "wb") as out:
            for x in mine:
                reply, ok = _reply(fn, x)
                out.write(reply)
                out.flush()
                if not ok:
                    break
    finally:
        os._exit(0)


def _reply(fn: Callable, x) -> tuple[bytes, bool]:
    try:
        return pickle.dumps((True, fn(x)), pickle.HIGHEST_PROTOCOL), True
    except BaseException as e:  # SystemExit too: the parent decides what it means
        try:
            return pickle.dumps((False, e), pickle.HIGHEST_PROTOCOL), False
        except Exception:
            return pickle.dumps((False, RuntimeError(f"{type(e).__name__}: {e}"))), False


def _collect(results: Iterable, each: Callable | None) -> list:
    out = []
    for r in results:
        out.append(r)
        if each is not None:
            each(r)
    return out
