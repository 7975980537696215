"""The benchmark's workloads: seeded inputs, the timed command, output checks.

Inputs are drawn with the benchmark's own numpy generator, never with
`setkernel.synth`, so a change to the program cannot change what a workload
feeds it. Fixture models are trained through the `setkernel train` CLI, and
that time is part of the workload's set-up.

Each workload is a class with three steps:
  setup(work, seed, run)   write inputs; `run` trains the fixture model
  command(inp, out, rep)   the setkernel argv timed for repetition `rep`
  check(inp, out, rep)     verify that command's outputs (not timed)
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

D = 2000  # random features; the setkernel default and the README benchmark value
M = 200   # cells kept per sample by herding or uniform sub-selection
CELL_FMT = "%.17g"  # round-trippable float64, as setkernel writes CSVs
CV_ACCURACY_FLOOR = 0.9


class CheckFailed(Exception):
    """A command's outputs are wrong."""


@dataclass
class Inputs:
    """Paths the timed command reads, plus what the checks compare against."""

    manifest: Path | None = None
    model: Path | None = None
    samples: list[Path] = field(default_factory=list)
    truth: list[str] = field(default_factory=list)  # generating class per sample
    cells: int = 0         # cells in the files the timed command reads
    input_bytes: int = 0   # bytes of those files
    phi_cache_bytes: int = 0  # largest n*D*8 herding caches in one call
    reference: dict = field(default_factory=dict)


def _write_cells(path: Path, cells: np.ndarray) -> None:
    header = ",".join(f"m{j}" for j in range(cells.shape[1]))
    np.savetxt(path, cells, fmt=CELL_FMT, delimiter=",", header=header, comments="")


def _write_manifest(path: Path, rows: list[tuple[str, str, str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sample_id", "path", "label"))
        writer.writerows(rows)


def _read_rows(path: Path) -> list[dict]:
    """CSV rows as dicts, skipping setkernel's leading '# config' comment."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class Mixture:
    """Gaussian mixture cells; the two classes differ only in component weights."""

    def __init__(self, means, weights_neg, weights_pos):
        self.means = np.asarray(means, dtype=np.float64)
        self.weights = {"neg": np.asarray(weights_neg), "pos": np.asarray(weights_pos)}

    @property
    def d(self) -> int:
        return self.means.shape[1]

    def draw(self, rng: np.random.Generator, label: str, n: int) -> np.ndarray:
        comp = rng.choice(len(self.means), size=n, p=self.weights[label])
        return self.means[comp] + rng.standard_normal((n, self.d))

    def write_cohort(self, rng, out_dir: Path, per_class: int,
                     n: int) -> tuple[Path, int]:
        """Write per_class samples of each label and their manifest."""
        (out_dir / "cells").mkdir(parents=True, exist_ok=True)
        rows = []
        for label in ("neg", "pos"):
            for i in range(per_class):
                sid = f"s_{label}_{i:03d}"
                _write_cells(out_dir / "cells" / f"{sid}.csv", self.draw(rng, label, n))
                rows.append((sid, f"cells/{sid}.csv", label))
        manifest = out_dir / "manifest.csv"
        _write_manifest(manifest, rows)
        return manifest, _tree_bytes(out_dir / "cells")


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def readme_spec() -> Mixture:
    """The README benchmark: d=2, unit components 4 apart, weights 0.3/0.7."""
    return Mixture([[0.0, 0.0], [4.0, 0.0]], [0.3, 0.7], [0.7, 0.3])


def marker_panel(rng: np.random.Generator, d: int = 30) -> Mixture:
    """A 30-marker panel: five unit-variance populations with seeded centres.

    The positive class shifts 20% of its cells from the first population to
    the last, a change large enough that every sample is labelled as its
    generating class.
    """
    means = 2.5 * rng.standard_normal((5, d))
    return Mixture(means, [0.30, 0.25, 0.20, 0.15, 0.10],
                   [0.10, 0.25, 0.20, 0.15, 0.30])


@dataclass(frozen=True)
class Size:
    """Workload dimensions; `full` is what the benchmark measures."""

    per_class: int
    cells: int
    large_cells: int = 0


class CvHerd:
    name = "cv-herd"
    why = ("crossval with herding on the README spec: the paper's headline "
           "experiment, small n so an n*n Gram matrix would fit")
    full = Size(per_class=10, cells=1000)
    smoke = Size(per_class=5, cells=250)

    def __init__(self, size: Size):
        self.size = size

    def setup(self, work: Path, seed: int, run) -> Inputs:
        rng = np.random.default_rng(seed)
        manifest, nbytes = readme_spec().write_cohort(rng, work / "cohort",
                                                      self.size.per_class, self.size.cells)
        return Inputs(manifest=manifest, cells=2 * self.size.per_class * self.size.cells,
                      input_bytes=nbytes, phi_cache_bytes=self.size.cells * D * 8)

    def command(self, inp: Inputs, out: Path, rep: int) -> list[str]:
        return ["crossval", "--manifest", str(inp.manifest), "--D", str(D), "--m", str(M),
                "--gamma", "1", "--folds", "5", "--runs", "1",
                "--subsample-method", "herding", "--threads", "1", "--out", str(out)]

    def check(self, inp: Inputs, out: Path, rep: int) -> float:
        rows = _read_rows(out / "report.csv")
        if len(rows) != 5:
            raise CheckFailed(f"report.csv has {len(rows)} rows, expected 1 run x 5 folds")
        accuracy = float(np.mean([float(r["accuracy"]) for r in rows]))
        if not accuracy >= CV_ACCURACY_FLOOR:
            raise CheckFailed(f"mean CV accuracy {accuracy:.3f} < {CV_ACCURACY_FLOOR}")
        return accuracy


class PredictLarge:
    name = "predict-large"
    why = ("predict on 30k-cell 30-marker samples: herding at large n, where "
           "phi (480 MB) is cached but an n*n Gram matrix (7 GB) is not")
    full = Size(per_class=6, cells=500, large_cells=30_000)
    smoke = Size(per_class=4, cells=300, large_cells=3_000)

    def __init__(self, size: Size):
        self.size = size

    def setup(self, work: Path, seed: int, run) -> Inputs:
        rng = np.random.default_rng(seed)
        panel = marker_panel(rng)
        manifest, _ = panel.write_cohort(rng, work / "cohort", self.size.per_class,
                                         self.size.cells)
        inp = Inputs(model=work / "model.txt")
        for label in ("neg", "pos"):
            path = work / f"large_{label}.csv"
            _write_cells(path, panel.draw(rng, label, self.size.large_cells))
            inp.samples.append(path)
            inp.truth.append(label)
        run(["train", "--manifest", str(manifest), "--model", str(inp.model),
             "--D", str(D), "--m", str(M), "--gamma", str(panel.d),
             "--subsample-method", "herding", "--threads", "1", "--out", str(work / "train")])
        inp.cells = self.size.large_cells
        inp.input_bytes = inp.samples[0].stat().st_size
        inp.phi_cache_bytes = self.size.large_cells * D * 8
        return inp

    def command(self, inp: Inputs, out: Path, rep: int) -> list[str]:
        # One sample per command, alternating the two classes across repetitions.
        sample = inp.samples[rep % len(inp.samples)]
        return ["predict", "--model", str(inp.model), "--threads", "1",
                "--out", str(out), str(sample)]

    def check(self, inp: Inputs, out: Path, rep: int) -> float:
        k = rep % len(inp.samples)
        rows = _read_rows(out / "predictions.csv")
        if len(rows) != 1 or rows[0]["sample_id"] != inp.samples[k].stem:
            raise CheckFailed(f"predictions.csv rows {rows!r}, expected one for "
                              f"{inp.samples[k].stem}")
        if not math.isfinite(float(rows[0]["decision"])):
            raise CheckFailed(f"non-finite decision {rows[0]['decision']!r}")
        if rows[0]["label"] != inp.truth[k]:
            raise CheckFailed(f"{inp.samples[k].stem} labelled {rows[0]['label']!r}, "
                              f"generated as {inp.truth[k]!r}")
        return 1.0


class InterpretUniform:
    name = "interpret-uniform"
    why = ("interpret with uniform sub-selection: herding does no work, CSV "
           "ingest, cell scores and k-means dominate, sizeable CSV outputs")
    full = Size(per_class=10, cells=2000)
    smoke = Size(per_class=4, cells=400)
    clusters = 10

    def __init__(self, size: Size):
        self.size = size

    def setup(self, work: Path, seed: int, run) -> Inputs:
        rng = np.random.default_rng(seed)
        panel = marker_panel(rng)
        manifest, nbytes = panel.write_cohort(rng, work / "cohort", self.size.per_class,
                                              self.size.cells)
        inp = Inputs(manifest=manifest, model=work / "model.txt",
                     cells=2 * self.size.per_class * self.size.cells, input_bytes=nbytes)
        run(["train", "--manifest", str(manifest), "--model", str(inp.model),
             "--D", str(D), "--m", str(M), "--gamma", str(panel.d),
             "--subsample-method", "uniform", "--threads", "1", "--out", str(work / "train")])
        return inp

    def reference(self, inp: Inputs, work: Path, run) -> None:
        """Decisions of `setkernel predict` under the same model (not timed)."""
        out = work / "reference"
        run(["predict", "--manifest", str(inp.manifest), "--model", str(inp.model),
             "--out", str(out)])
        rows = _read_rows(out / "predictions.csv")
        inp.reference = {r["sample_id"]: float(r["decision"]) for r in rows}
        labels = {r["sample_id"]: r["label"] for r in _read_rows(inp.manifest)}
        inp.truth = [labels[r["sample_id"]] for r in rows]

    def command(self, inp: Inputs, out: Path, rep: int) -> list[str]:
        return ["interpret", "--manifest", str(inp.manifest), "--model", str(inp.model),
                "--clusters-C", str(self.clusters), "--threads", "1", "--out", str(out)]

    def check(self, inp: Inputs, out: Path, rep: int) -> float:
        n_samples = len(inp.reference)
        scores = _read_rows(out / "scores.csv")
        if len(scores) != n_samples * M:
            raise CheckFailed(f"scores.csv has {len(scores)} rows, expected {n_samples * M}")
        per_sample: dict[str, list[float]] = {}
        for r in scores:
            cid = int(r["cluster_id"])
            if not 0 <= cid < self.clusters:
                raise CheckFailed(f"cluster id {cid} outside [0, {self.clusters})")
            per_sample.setdefault(r["sample_id"], []).append(float(r["score"]))
        freqs = _read_rows(out / "frequencies.csv")
        stats = _read_rows(out / "stats.csv")
        if len(freqs) != n_samples or len(stats) != self.clusters:
            raise CheckFailed(f"{len(freqs)} frequency rows and {len(stats)} p-values, "
                              f"expected {n_samples} and {self.clusters}")
        for r in freqs:
            total = sum(float(r[f"freq_{c}"]) for c in range(self.clusters))
            if abs(total - 1.0) > 1e-9:
                raise CheckFailed(f"frequencies of {r['sample_id']} sum to {total!r}")
        for r in stats:
            p = float(r["rank_sum_p"])
            if not 0.0 < p <= 1.0:
                raise CheckFailed(f"p-value {p!r} of cluster {r['cluster_id']} not in (0, 1]")
        # The README's exact decomposition: a sample's decision is the mean of
        # its cell scores, so interpret and predict must agree per sample.
        correct = 0
        for (sid, decision), truth in zip(inp.reference.items(), inp.truth):
            mean_score = float(np.mean(per_sample.get(sid, [math.nan])))
            if not abs(mean_score - decision) <= 1e-9 * max(1.0, abs(decision)):
                raise CheckFailed(f"{sid}: mean cell score {mean_score!r} != "
                                  f"predict decision {decision!r}")
            correct += (mean_score >= 0) == (truth == "pos")
        return correct / n_samples


WORKLOADS = {w.name: w for w in (CvHerd, PredictLarge, InterpretUniform)}
