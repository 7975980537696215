"""Run the setkernel CLI with a span around each call into a layer.

    python3 trace_cli.py SPANS_JSON SETKERNEL_ARGS...

Wraps the layer functions in the module namespaces that call them (a
function imported with `from .x import f` is looked up in the importer, so
`setkernel.herding.featurize_batch` and `setkernel.classifier.herd` are
wrapped separately), then calls `setkernel.cli.main`. Spans stay in memory
and are written to SPANS_JSON at exit. A wrapped name that no longer exists
stops the run: a silent skip would move that layer's time into `cli`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# span name -> binding sites "module:function" the span wraps
SPANS = {
    "data.load": ["setkernel.data:load_sample_set", "setkernel.cli:load_sample_set",
                  "setkernel.cli:load_manifest"],
    "data.write": ["setkernel.cli:_write_csv"],
    "rff.featurize": ["setkernel.herding:featurize_batch",
                      "setkernel.embedding:featurize_batch",
                      "setkernel.interpret:featurize_batch"],
    "embedding.embed": ["setkernel.cli:embed_matrix", "setkernel.classifier:embed_matrix"],
    "herding.herd": ["setkernel.cli:herd", "setkernel.classifier:herd"],
    "herding.uniform": ["setkernel.cli:uniform_subsample",
                        "setkernel.classifier:uniform_subsample"],
    "classifier.solve": ["setkernel.classifier:solve_hinge", "setkernel.interpret:solve_hinge"],
    "classifier.model_io": ["setkernel.cli:save_model", "setkernel.cli:load_model"],
    "interpret.kmeans": ["setkernel.interpret:kmeans"],
    "interpret.cell_scores": ["setkernel.interpret:cell_scores"],
    "interpret.region": ["setkernel.interpret:region_scores",
                         "setkernel.interpret:score_gradient"],
    "interpret.stats": ["setkernel.interpret:rank_sum_test"],
}


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _count_load(args, result):
    if hasattr(result, "n"):  # one SampleSet; a manifest's samples count one by one
        return {"cells": result.n, "bytes": os.path.getsize(args[0])}
    return {}


def _count_herd(args, result):
    rmap, sample, m = args[:3]
    return {"n": sample.n, "D": rmap.D, "m": m}


COUNTERS = {
    "data.load": _count_load,
    "data.write": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "rff.featurize": lambda args, result: {"rows": _rows(args[1])},
    "embedding.embed": lambda args, result: {"rows": _rows(args[1])},
    "herding.herd": _count_herd,
    "classifier.solve": lambda args, result: {"updates": result.n_updates,
                                              "unconverged": int(not result.converged)},
    "interpret.kmeans": lambda args, result: {"iters": len(result.inertia_history)},
    "interpret.cell_scores": lambda args, result: {"rows": _rows(args[1])},
}


class Tracer:
    """Nested spans of one single-threaded process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": time.monotonic(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span.update(counter(args, result))
            if after is not None:
                after(span, args, result)
            return result

        return traced


def _herding_residual(tracer: Tracer, featurize):
    """‖mean phi(selected) - mean phi(all)‖, timed as a `trace.*` span."""

    def after(span, args, result):
        rmap, sample = args[:2]
        bookkeeping = tracer.begin("trace.residual")
        full = sum(featurize(rmap, sample.cells[i:i + 4096]).sum(axis=0)
                   for i in range(0, sample.n, 4096)) / sample.n
        picked = featurize(rmap, sample.cells[list(result.selected_indices)]).mean(axis=0)
        span["residual"] = float(np.linalg.norm(picked - full))
        tracer.end(bookkeeping)

    return after


def install(tracer: Tracer) -> None:
    """Replace every binding site in SPANS with a traced wrapper."""
    # Import every module first: a `from .x import f` run after x.f is wrapped
    # would bind the wrapper and trace each call twice.
    from setkernel import cli  # noqa: F401
    from setkernel.rff import featurize_batch

    extra = {"herding.herd": _herding_residual(tracer, featurize_batch)}
    for name, sites in SPANS.items():
        for site in sites:
            module_name, attr = site.split(":")
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise SystemExit(f"trace: {site} is missing; update perfbench/trace_cli.py")
            setattr(module, attr, tracer.wrap(name, fn, COUNTERS.get(name), extra.get(name)))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from setkernel import cli

    root = tracer.begin("cli.main")
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.end(root)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
