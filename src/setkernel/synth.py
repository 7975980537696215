"""Gaussian-mixture sample-set generator for benchmarks and tests.

A spec describes shared mixture components and one weight vector per class;
samples are drawn per (class, set index) with seeds derived from the spec
seed, so regeneration is fully deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import derive_seed
from .data import LabeledDataset, SampleSet, sample_file_name, save_sample_set, write_manifest
from .errors import ConfigError, DataError
from .rff import philox_rng


@dataclass(frozen=True)
class Component:
    """One mixture component: mean vector and a covariance factor L (cov = L L^T)."""

    mean: np.ndarray
    chol: np.ndarray

    @property
    def d(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-class Gaussian-mixture benchmark description."""

    sets_per_class: int
    cells_per_set: int
    components: tuple[Component, ...]
    weights_neg: tuple[float, ...]
    weights_pos: tuple[float, ...]
    labels: tuple[str, str] = ("neg", "pos")
    seed: int = 0

    def __post_init__(self):
        if self.sets_per_class < 1 or self.cells_per_set < 1:
            raise ConfigError("sets_per_class and cells_per_set must be positive")
        if not self.components:
            raise ConfigError("at least one mixture component required")
        d = self.components[0].d
        if any(c.d != d for c in self.components):
            raise ConfigError("all components must share the same dimension")
        for name, w in (("weights_neg", self.weights_neg),
                        ("weights_pos", self.weights_pos)):
            w = np.asarray(w, dtype=np.float64)
            if w.shape[0] != len(self.components):
                raise ConfigError(f"{name} must have one weight per component")
            if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
                raise ConfigError(f"{name} must be a probability vector summing to 1")
        if len(set(self.labels)) != 2:
            raise ConfigError("labels must be two distinct strings")

    @property
    def d(self) -> int:
        return self.components[0].d


def _component_from_dict(entry: dict) -> Component:
    try:
        mean = np.asarray(entry["mean"], dtype=np.float64).ravel()
        cov = entry["cov"]
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad mixture component {entry!r}: {e}") from e
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim == 1:
        if cov.shape[0] != mean.shape[0] or np.any(cov <= 0):
            raise ConfigError("diagonal cov must list one positive variance per feature")
        chol = np.diag(np.sqrt(cov))
    else:
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ConfigError(f"cov must be {mean.shape[0]} x {mean.shape[0]}")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigError("covariance matrix is not positive-definite") from None
    return Component(mean=mean, chol=chol)


def load_spec(path) -> SyntheticSpec:
    """Read a JSON benchmark spec from disk."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read spec file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return spec_from_dict(payload)


def spec_from_dict(payload: dict) -> SyntheticSpec:
    try:
        components = tuple(_component_from_dict(c) for c in payload["components"])
        return SyntheticSpec(
            sets_per_class=int(payload["sets_per_class"]),
            cells_per_set=int(payload["cells_per_set"]),
            components=components,
            weights_neg=tuple(float(w) for w in payload["weights_neg"]),
            weights_pos=tuple(float(w) for w in payload["weights_pos"]),
            labels=tuple(payload.get("labels", ("neg", "pos"))),
            seed=int(payload.get("seed", 0)),
        )
    except KeyError as e:
        raise ConfigError(f"spec is missing required field {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad spec value: {e}") from e


def _draw_sample(spec: SyntheticSpec, weights, seed: int, sample_id: str) -> SampleSet:
    rng = philox_rng(seed)
    n, d = spec.cells_per_set, spec.d
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    comp_ids = np.searchsorted(cum, rng.random(n), side="right")
    comp_ids = np.minimum(comp_ids, len(spec.components) - 1)
    z = rng.standard_normal((n, d))
    cells = np.empty((n, d))
    for k, comp in enumerate(spec.components):
        mask = comp_ids == k
        if mask.any():
            cells[mask] = comp.mean + z[mask] @ comp.chol.T
    markers = tuple(f"f{j}" for j in range(d))
    return SampleSet(cells=cells, sample_id=sample_id, marker_names=markers)


def _sample_keys(spec: SyntheticSpec):
    """(label string, its class's weights, set index, sample id) of every sample, in order."""
    for label_str, weights in ((spec.labels[0], spec.weights_neg),
                               (spec.labels[1], spec.weights_pos)):
        for i in range(spec.sets_per_class):
            yield label_str, weights, i, f"{label_str}_{i:03d}"


def _iter_samples(spec: SyntheticSpec):
    for label_str, weights, i, sid in _sample_keys(spec):
        yield _draw_sample(spec, weights,
                           derive_seed(spec.seed, f"synth:{label_str}:{i}"),
                           sid), label_str


def generate_dataset(spec: SyntheticSpec) -> LabeledDataset:
    """Materialize the benchmark in memory (label strings map as usual)."""
    lo, hi = sorted(spec.labels)
    samples, labels = [], []
    for s, label_str in _iter_samples(spec):
        samples.append(s)
        labels.append(-1 if label_str == lo else +1)
    return LabeledDataset(samples=tuple(samples), labels=tuple(labels),
                          label_names={-1: lo, +1: hi})


def generate_files(spec: SyntheticSpec, out_dir) -> Path:
    """Write sample CSVs and a manifest under out_dir; returns manifest path.

    A label that makes a sample id data.sample_file_name refuses is a
    ConfigError, raised before anything is written.
    """
    names = []
    for label_str, _, _, sid in _sample_keys(spec):
        try:
            names.append(sample_file_name(sid))
        except DataError as e:
            raise ConfigError(f"spec label {label_str!r}: {e}") from None
    out_dir = Path(out_dir)
    (out_dir / "cells").mkdir(parents=True, exist_ok=True)
    entries = []
    for (s, label_str), name in zip(_iter_samples(spec), names):
        rel = f"cells/{name}"
        save_sample_set(s, out_dir / rel)
        entries.append((s.sample_id, rel, label_str))
    manifest = out_dir / "manifest.csv"
    write_manifest(entries, manifest)
    return manifest


def benchmark_spec(seed: int = 0, sets_per_class: int = 40,
                   cells_per_set: int = 1000) -> SyntheticSpec:
    """Standard mixture-weight-contrast benchmark.

    Two unit-variance 2-D components four standard deviations apart; the
    classes invert the component weights (0.3/0.7 vs 0.7/0.3).
    """
    return spec_from_dict({
        "sets_per_class": sets_per_class,
        "cells_per_set": cells_per_set,
        "seed": seed,
        "components": [
            {"mean": [0.0, 0.0], "cov": [1.0, 1.0]},
            {"mean": [4.0, 0.0], "cov": [1.0, 1.0]},
        ],
        "weights_neg": [0.3, 0.7],
        "weights_pos": [0.7, 0.3],
    })


def variance_contrast_spec(seed: int = 0, sets_per_class: int = 20,
                           cells_per_set: int = 1000) -> SyntheticSpec:
    """Ablation fixture: identical mixture means, class-dependent spread.

    The per-feature mean carries no label signal, so the plain-average
    baseline is blind while embeddings still separate the classes.
    """
    return spec_from_dict({
        "sets_per_class": sets_per_class,
        "cells_per_set": cells_per_set,
        "seed": seed,
        "components": [
            {"mean": [0.0, 0.0], "cov": [1.0, 1.0]},
            {"mean": [3.0, 0.0], "cov": [1.0, 1.0]},
            {"mean": [0.0, 0.0], "cov": [4.0, 4.0]},
            {"mean": [3.0, 0.0], "cov": [4.0, 4.0]},
        ],
        "weights_neg": [0.5, 0.5, 0.0, 0.0],
        "weights_pos": [0.0, 0.0, 0.5, 0.5],
    })
