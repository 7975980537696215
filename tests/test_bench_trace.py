"""The traced benchmark run wraps functions by name; every name must exist.

perfbench/trace_cli.py stops at the first `module:function` site it cannot
find, so a rename in the package would break the traced run. The module is
loaded by file path and only its SPANS table is read: its install() rebinds
module attributes for the whole process and is never called here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "trace_cli.py"


def test_every_trace_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_trace_cli", TRACE_CLI)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    sites = [site for group in trace_cli.SPANS.values() for site in group]
    assert sites
    missing = []
    for site in sites:
        module_name, attr = site.split(":")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(site)
    assert missing == []
