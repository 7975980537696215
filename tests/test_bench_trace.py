"""The benchmark calls the package by name; every name it uses must exist.

perfbench/trace_cli.py stops at the first `module:function` site it cannot
find, so a rename in the package would break the traced run. Its counters
and its herding-residual hook read fields of the results they wrap
(SolveResult.n_updates and .converged, ClusterModel.inertia_history,
HerdingResult.selected_indices), so a dropped field would break it too. The
module is loaded by file path and only its tables and hooks are called: its
install() rebinds module attributes for the whole process and is never
called here.

perfbench/workloads.py builds the setkernel command lines the benchmark runs;
a flag the CLI no longer parses would make every timed command exit 2.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from setkernel import featurize_batch, herd, kmeans, sample_frequencies, solve_hinge
from setkernel.cli import build_parser
from setkernel.embedding import embed_matrix

from conftest import make_sample

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_by_path(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves_to_a_callable():
    trace_cli = load_by_path("trace_cli")
    sites = [site for group in trace_cli.SPANS.values() for site in group]
    assert sites
    missing = []
    for site in sites:
        module_name, attr = site.split(":")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(site)
    assert missing == []


def test_counters_and_residual_read_real_results():
    trace_cli = load_by_path("trace_cli")
    cells = np.random.default_rng(7).normal(size=(40, 2))
    sample = make_sample(cells)
    rmap = sample_frequencies(2, 64, 1.0, 5)
    X, y = featurize_batch(rmap, cells), np.where(cells[:, 0] > 0, 1.0, -1.0)
    solved = solve_hinge(X, y)
    assert trace_cli.COUNTERS["classifier.solve"]((X, y), solved) == {
        "updates": solved.n_updates, "unconverged": 0}
    assert solved.n_updates > 0
    clusters = kmeans(cells, 3, seed=1)
    iters = trace_cli.COUNTERS["interpret.kmeans"]((cells, 3, 1), clusters)["iters"]
    assert iters == len(clusters.inertia_history) > 0
    herded = herd(rmap, sample, 5)
    assert trace_cli.COUNTERS["herding.herd"]((rmap, sample, 5), herded) == {
        "n": 40, "D": 64, "m": 5}
    tracer = trace_cli.Tracer()
    span = tracer.begin("herding.herd")
    tracer.end(span)
    trace_cli._herding_residual(tracer, featurize_batch)(span, (rmap, sample, 5), herded)
    picked = embed_matrix(rmap, cells[list(herded.selected_indices)])
    assert math.isfinite(span["residual"])
    assert math.isclose(span["residual"], np.linalg.norm(picked - embed_matrix(rmap, cells)),
                        rel_tol=1e-9)
    assert [s["name"] for s in tracer.spans] == ["herding.herd", "trace.residual"]


def test_every_benchmark_command_line_parses(tmp_path):
    workloads = load_by_path("workloads")
    argvs = []
    for name, workload_cls in workloads.WORKLOADS.items():
        workload = workload_cls(workload_cls.smoke)
        inp = workload.setup(tmp_path / name, 0, argvs.append)
        argvs.append(workload.command(inp, tmp_path / name / "out", 0))
    assert len(argvs) == 5  # two set-up trainings and three timed commands
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)
