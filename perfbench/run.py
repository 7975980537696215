"""Benchmark of the setkernel CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload cv-herd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each timed command is one `python3 -m setkernel.cli` subprocess run from
this checkout's `src/`, as a user would run it. Wall time runs from spawn to
exit; CPU time and peak RSS come from `wait4`. With `--trace 1` the same
commands alternate untraced and through `trace_cli.py`, which records a span
around every call into a layer; the per-layer metrics come from those spans.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is a report with the environment, the workload's inputs
and every sample count. All inputs and outputs live in a temporary directory
inside the checkout that is removed at exit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
# Set-up repeats at least SETUP_REPEATS times and SETUP_MIN_S seconds, and
# setup_s is the median: a 0.1 s set-up needs many samples to be steady.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
COMMAND_TIMEOUT_S = 150

E2E_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "success_rate": "ratio", "accuracy": "ratio",
}

LAYER_UNITS = {
    "cli.self_s": "s", "cli.startup_s": "s",
    "data.load.self_s": "s", "data.cells_read": "count", "data.bytes_read": "B",
    "data.write.self_s": "s", "data.bytes_written": "B",
    "rff.featurize.self_s": "s", "rff.calls": "count", "rff.rows": "count",
    "rff.rows_per_cell_read": "ratio",
    "embedding.embed.self_s": "s", "embedding.rows": "count",
    "herding.herd.self_s": "s", "herding.uniform.self_s": "s", "herding.calls": "count",
    "herding.cells_in": "count", "herding.picks": "count", "herding.bytes": "B",
    "herding.gbps": "GB/s", "herding.cache_bytes": "B", "herding.residual": "l2",
    "classifier.solve.self_s": "s", "classifier.solves": "count",
    "classifier.solver_updates": "count", "classifier.unconverged": "count",
    "classifier.model_io.self_s": "s",
    "interpret.kmeans.self_s": "s", "interpret.kmeans_iters": "count",
    "interpret.cell_scores.self_s": "s", "interpret.cells_scored": "count",
    "interpret.region.self_s": "s", "interpret.stats.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.residual_s": "s",
}


class CommandFailed(Exception):
    """A setkernel command exited non-zero."""


class Runner:
    """Spawns setkernel commands from this checkout and measures each one."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.count = 0

    def spawn(self, args: list[str], spans: Path | None = None) -> dict:
        """Run one command to completion; returns its wall, CPU and peak RSS."""
        if spans is None:
            argv = [sys.executable, "-m", "setkernel.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(spans), *args]
        self.count += 1
        log = self.work / f"cmd{self.count}.log"
        with open(log, "wb") as fh:
            start_mono = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall": wall, "spawn": start_mono,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
                "log": log}

    def run(self, args: list[str]) -> None:
        """Run a command whose failure makes the workload unusable."""
        m = self.spawn(args)
        if m["rc"] != 0:
            raise CommandFailed(f"setkernel {' '.join(args[:1])} exited {m['rc']}: "
                                f"{_tail(m['log'])}")


def _tail(log: Path, lines: int = 3) -> str:
    return " | ".join(log.read_text(errors="replace").strip().splitlines()[-lines:])


def _fingerprint(setup_dir: Path) -> str:
    """Hash of the fixture model and every input file one set-up wrote."""
    h = hashlib.sha256()
    for p in sorted(setup_dir.rglob("*")):
        if p.is_file() and p.suffix in (".csv", ".txt") and p.name != "meta.txt":
            h.update(p.read_bytes())
    return h.hexdigest()


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, if above the median."""
    n = len(values)
    pct = 100.0 * (n - 10) / n
    if pct <= 50.0:
        return None
    return {"pct": round(pct, 1), "value": float(np.percentile(values, pct))}


def summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "tail": tail_percentile(values), "values": [round(v, 4) for v in values]}


def layer_metrics(spans: list[dict], wall: float, spawn: float) -> dict:
    """Per-layer self times and counts of one traced command."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for s in spans:
        self_s[s["name"]] += (s["end"] - s["start"]) - children[s["id"]]
        by_name[s["name"]].append(s)

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    herd = by_name["herding.herd"]
    herd_bytes = sum(s["n"] * s["D"] * 8 * s["m"] for s in herd)
    cells_read = total("data.load", "cells")
    rows = total("rff.featurize", "rows")
    bookkeeping = sum(v for k, v in self_s.items() if k.startswith("trace."))
    layer_self = sum(v for k, v in self_s.items()
                     if k != "cli.main" and not k.startswith("trace."))
    root = by_name["cli.main"][0]
    out = {
        "cli.self_s": wall - layer_self - bookkeeping,
        "cli.startup_s": root["start"] - spawn,
        "data.load.self_s": self_s["data.load"],
        "data.cells_read": cells_read,
        "data.bytes_read": total("data.load", "bytes"),
        "data.write.self_s": self_s["data.write"],
        "data.bytes_written": total("data.write", "bytes"),
        "rff.featurize.self_s": self_s["rff.featurize"],
        "rff.calls": len(by_name["rff.featurize"]),
        "rff.rows": rows,
        "rff.rows_per_cell_read": rows / cells_read if cells_read else 0.0,
        "embedding.embed.self_s": self_s["embedding.embed"],
        "embedding.rows": total("embedding.embed", "rows"),
        "herding.herd.self_s": self_s["herding.herd"],
        "herding.uniform.self_s": self_s["herding.uniform"],
        "herding.calls": len(herd),
        "herding.cells_in": total("herding.herd", "n"),
        "herding.picks": total("herding.herd", "m"),
        "herding.bytes": herd_bytes,
        "herding.gbps": (herd_bytes / self_s["herding.herd"] / 1e9
                         if herd and self_s["herding.herd"] > 0 else 0.0),
        "herding.cache_bytes": max((s["n"] * s["D"] * 8 for s in herd), default=0),
        "herding.residual": (float(np.mean([s["residual"] for s in herd]))
                             if herd else 0.0),
        "classifier.solve.self_s": self_s["classifier.solve"],
        "classifier.solves": len(by_name["classifier.solve"]),
        "classifier.solver_updates": total("classifier.solve", "updates"),
        "classifier.unconverged": total("classifier.solve", "unconverged"),
        "classifier.model_io.self_s": self_s["classifier.model_io"],
        "interpret.kmeans.self_s": self_s["interpret.kmeans"],
        "interpret.kmeans_iters": total("interpret.kmeans", "iters"),
        "interpret.cell_scores.self_s": self_s["interpret.cell_scores"],
        "interpret.cells_scored": total("interpret.cell_scores", "rows"),
        "interpret.region.self_s": self_s["interpret.region"],
        "interpret.stats.self_s": self_s["interpret.stats"],
        "trace.wall_s": wall,
        "trace.residual_s": bookkeeping,
    }
    negative = {k: v for k, v in out.items() if k.endswith("_s") and v < -1e-6}
    if negative:
        raise CheckFailed(f"spans do not nest inside the command: {negative}")
    return out


def environment() -> dict:
    """Machine and software the numbers were measured on."""
    env = {"nproc": os.cpu_count(), "cpu_model": "unknown", "ram_gb": None,
           "python": platform.python_version(), "numpy": np.__version__,
           "blas": None, "blas_threads": {k: os.environ.get(k, "unset") for k in
                                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")},
           "git_commit": "unknown"}
    try:  # numpy is imported and no timer runs yet: main thread plus BLAS workers
        env["blas_threads"]["running"] = len(os.listdir("/proc/self/task"))
    except OSError:
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(ln.split(":", 1)[1].strip() for ln in fh
                                    if ln.startswith("model name"))
        with open("/proc/meminfo", encoding="utf-8") as fh:
            kib = int(next(ln.split()[1] for ln in fh if ln.startswith("MemTotal")))
            env["ram_gb"] = round(kib / 2**20, 2)
    except (OSError, StopIteration, ValueError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    try:
        env["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Set up, time and check one workload; returns (result, report)."""
    wl = WORKLOADS[name]
    workload = wl(wl.smoke if smoke else wl.full)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return _measure(workload, work, seed, seconds, trace, repeat_setup=not (trace or smoke))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, work: Path, seed: int, seconds: float, trace: bool,
             repeat_setup: bool) -> tuple[dict, dict]:
    env = environment()
    runner = Runner(work)
    runner.run(["--help"])  # compile bytecode before anything is timed
    setup_times, fingerprints = [], []
    while True:
        setup_dir = work / f"setup{len(setup_times)}"
        t0 = time.perf_counter()
        inp = workload.setup(setup_dir, seed, runner.run)
        setup_times.append(time.perf_counter() - t0)
        fingerprints.append(_fingerprint(setup_dir))
        if not repeat_setup or (len(setup_times) >= SETUP_REPEATS
                                and sum(setup_times) >= SETUP_MIN_S):
            break
        shutil.rmtree(setup_dir)
    problems = []
    if len(set(fingerprints)) != 1:
        problems.append("set-up is not deterministic: the same seed wrote different files")
    if hasattr(workload, "reference"):
        workload.reference(inp, work, runner.run)

    untraced, traced, layers, accuracies = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    rep = 0
    # Repeat while one more repetition, at the median length so far, still fits.
    lengths: list[float] = []
    while rep == 0 or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        rep_start = time.perf_counter()
        for with_trace in ((False, True) if trace else (False,)):
            out = work / f"out{rep}{'t' if with_trace else ''}"
            spans = work / f"spans{rep}.json" if with_trace else None
            m = runner.spawn(workload.command(inp, out, rep), spans)
            attempted += 1
            accuracy = 0.0  # a failed operation delivered no correct result
            try:
                if m["rc"] != 0:
                    raise CheckFailed(f"exit {m['rc']}: {_tail(m['log'])}")
                accuracy = workload.check(inp, out, rep)
                if with_trace:
                    layers.append(layer_metrics(json.loads(spans.read_text()),
                                                m["wall"], m["spawn"]))
            except (CheckFailed, OSError, KeyError, ValueError) as e:
                failed += 1
                problems.append(f"rep {rep}{' traced' if with_trace else ''}: {e}")
            accuracies.append(accuracy)
            (traced if with_trace else untraced).append(m)
            shutil.rmtree(out, ignore_errors=True)
        lengths.append(time.perf_counter() - rep_start)
        rep += 1

    walls = [m["wall"] for m in untraced]
    if trace:
        metrics = {k: statistics.median([row[k] for row in layers]) if layers else 0.0
                   for k in LAYER_UNITS if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(m["wall"] for m in traced)
                                       - statistics.median(walls))
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(m["cpu"] for m in untraced),
            "peak_rss_mb": statistics.median(m["rss_mb"] for m in untraced),
            "setup_s": statistics.median(setup_times),
            "success_rate": (attempted - failed) / attempted,
            "accuracy": float(np.mean(accuracies)),
        }
        units = E2E_UNITS
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}}
    report = {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "inputs": {"cells": inp.cells, "bytes": inp.input_bytes,
                                   "phi_cache_bytes": inp.phi_cache_bytes},
        "wall_s": summary(walls),
        "cpu_s": summary([m["cpu"] for m in untraced]),
        "peak_rss_mb": summary([m["rss_mb"] for m in untraced]),
        "setup_s": summary(setup_times),
        "error_rate": failed / attempted,
        "problems": problems[:10],
        "environment": env,
    }
    if trace:
        report["traced_wall_s"] = summary([m["wall"] for m in traced])
    return result, report


def smoke(seed: int) -> int:
    """Toy-size run of every workload, untraced and traced; checks metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        for trace in (False, True):
            result, report = run_workload(name, seed, 0.0, trace, smoke=True)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            good = result["correct"] and emitted == expected[trace]
            ok &= good
            print(f"{name} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={report['wall_s']['median']:.2f}s {report['problems']}")
            if emitted != expected[trace]:
                print(f"  metrics differ from BENCHMARK.json: "
                      f"{set(emitted.items()) ^ set(expected[trace].items())}")
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed loop repeats the command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, every workload, untraced and traced")
    args = parser.parse_args()
    if not (SRC / "setkernel" / "cli.py").is_file():
        print(f"error: no setkernel sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except CommandFailed as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
