"""Per-sample maps in forked worker processes, one BLAS thread each.

Each sample of a cohort is herded and embedded on its own, so map_items can
run them side by side: one forked worker per usable CPU, each taking the
next item. Before forking, the parent sets the OpenBLAS that numpy loaded to
one thread and restores its count once the workers are joined; left at its
default, each worker's BLAS threads contend for the same cores and the pool
runs slower than the serial map. A map of one item, on one usable CPU,
inside a worker, or without that setter (MKL, Accelerate, a platform
without /proc/self/maps) runs in this process. Either way results come back
in input order, and the first item in that order that raises decides the
error.

The workers are forked, not spawned: a spawned worker re-imports numpy and
is sent its samples pickled, which measured slower than the forked pool.
From Python 3.11 the executor forks them all before it starts its manager
thread (earlier versions fork on demand beside it, so they map in-process),
the CLI runs no other Python thread, and OpenBLAS's own fork handler stops
its threads.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from typing import Callable, Iterable

# (setter, getter) of the thread count: numpy's wheels bundle scipy-openblas
# with an ILP64 suffix, a system OpenBLAS has the plain names
_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
            ("openblas_set_num_threads", "openblas_get_num_threads"))

_FORKS_FIRST = sys.version_info >= (3, 11)  # see the module docstring

# Module state, because forked workers inherit it: fn may be a closure, which
# cannot be pickled, so only item indices and results cross between processes.
_task = None  # (fn, items) of the running pooled map
_workers = 1  # the workers running it


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
    """The workers of the running pooled map, or 1: each herds with 1/in_flight() of
    the cache budget, so k herds together stay within it."""
    return _workers


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return 1


def _run(i: int):
    fn, items = _task
    return fn(items[i])


def map_items(fn: Callable, items: Iterable, pooled: bool = True,
              each: Callable | None = None) -> list:
    """[fn(x) for x in items], in input order; each(result), when given, runs in this
    process on every result in order, before the next result is taken.

    With pooled set, two or more items and usable CPUs and numpy's BLAS
    setter found, fn runs in a fork pool of min(items, usable CPUs)
    workers, which inherit fn and the items rather than receive them
    pickled; only results travel back. An error, fn's or each's, stops the
    map at the first item in order that raises: no later result is taken,
    and the workers are joined before it propagates.
    """
    global _task, _workers
    items = list(items)
    k = min(len(items), _usable_cpus()) if pooled and _FORKS_FIRST and _task is None else 1
    threads = blas_threads() if k > 1 else None
    if threads is None:
        return _collect((fn(x) for x in items), each)
    # imported here, so a command that never pools does not load them (0.7 MB)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    set_threads, get_threads = threads
    before = get_threads()
    pool = ProcessPoolExecutor(k, mp_context=multiprocessing.get_context("fork"))
    try:
        _task, _workers = (fn, items), k
        set_threads(1)  # before the first submit, which forks the k workers
        futures = [pool.submit(_run, i) for i in range(len(items))]
        return _collect((f.result() for f in futures), each)
    finally:
        pool.shutdown(cancel_futures=True)
        set_threads(before)
        _task, _workers = None, 1


def _collect(results: Iterable, each: Callable | None) -> list:
    out = []
    for r in results:
        out.append(r)
        if each is not None:
            each(r)
    return out
