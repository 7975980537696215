"""The benchmark calls the package by name; every name it uses must exist.

perfbench/trace_cli.py stops at the first `module:function` site it cannot
find, so a rename in the package would break the traced run. The module is
loaded by file path and only its SPANS table is read: its install() rebinds
module attributes for the whole process and is never called here.

perfbench/workloads.py builds the setkernel command lines the benchmark runs;
a flag the CLI no longer parses would make every timed command exit 2.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from setkernel.cli import build_parser

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
