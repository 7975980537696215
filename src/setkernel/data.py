"""Domain types and CSV ingestion for multi-sample single-cell data.

A sample is a set of cells; each cell is a vector of d marker values.
Sample files are plain CSV (header row of marker names, one numeric row per
cell). A manifest CSV (header "sample_id,path,label") ties samples to their
binary labels.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError

FLOAT_FMT = ".17g"  # shortest round-trippable decimal for float64


def fmt_float(v) -> str:
    """v as the FLOAT_FMT decimal that every output file writes."""
    return format(float(v), FLOAT_FMT)


MANIFEST_HEADER = ("sample_id", "path", "label")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SampleSet:
    """One biological sample: an (n, d) matrix of cell marker values.

    Row order is storage order only and carries no meaning.
    """

    cells: np.ndarray
    sample_id: str
    marker_names: tuple[str, ...]

    def __post_init__(self):
        cells = np.atleast_2d(np.asarray(self.cells, dtype=np.float64))
        if cells.ndim != 2 or cells.shape[0] < 1 or cells.shape[1] < 1:
            raise ValueError(f"cells must be a non-empty 2-D matrix, got shape {cells.shape}")
        if not np.all(np.isfinite(cells)):
            raise ValueError(f"sample {self.sample_id!r} contains non-finite values")
        if len(self.marker_names) != cells.shape[1]:
            raise ValueError(
                f"sample {self.sample_id!r}: {len(self.marker_names)} marker names "
                f"for {cells.shape[1]} columns"
            )
        object.__setattr__(self, "cells", _readonly(cells))
        object.__setattr__(self, "marker_names", tuple(str(m) for m in self.marker_names))

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @property
    def d(self) -> int:
        return self.cells.shape[1]


@dataclass(frozen=True)
class LabeledDataset:
    """N (sample, label) pairs with labels in {-1, +1} and shared markers.

    label_names maps -1/+1 back to the original label strings.
    """

    samples: tuple[SampleSet, ...]
    labels: tuple[int, ...]
    label_names: dict[int, str] = field(default_factory=lambda: {-1: "-1", +1: "+1"})

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "labels", tuple(int(y) for y in self.labels))
        if len(self.samples) != len(self.labels):
            raise ValueError("samples and labels must have equal length")
        if len(self.samples) < 2:
            raise ValueError(f"N >= 2 required, got {len(self.samples)} sample(s)")
        if not set(self.labels) == {-1, +1}:
            raise ValueError("labels must contain both -1 and +1")
        markers = self.samples[0].marker_names
        for s in self.samples[1:]:
            if s.marker_names != markers:
                raise ValueError(
                    f"sample {s.sample_id!r} markers {s.marker_names} "
                    f"differ from {markers}"
                )

    @property
    def N(self) -> int:
        return len(self.samples)

    @property
    def d(self) -> int:
        return self.samples[0].d

    @property
    def marker_names(self) -> tuple[str, ...]:
        return self.samples[0].marker_names


@dataclass(frozen=True)
class Standardizer:
    """Per-feature location/scale fitted on pooled training cells."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        std = np.asarray(self.std, dtype=np.float64).ravel()
        if mean.shape != std.shape:
            raise ValueError("mean and std must have the same length")
        if not np.all(std > 0):
            raise ValueError("std entries must be positive")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "std", _readonly(std))

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def load_sample_set(path, expected_markers: Sequence[str] | None = None,
                    sample_id: str | None = None) -> SampleSet:
    """Load one sample CSV (header of marker names, one numeric row per cell).

    If expected_markers is given, columns are permuted to that order; a
    mismatch in the marker set, or a marker named twice, is an error.
    Row/column positions in error messages are 1-based and count data rows
    (header excluded); blank lines are skipped but counted. The sample_id
    defaults to the file stem; one holding a carriage return is an error.
    """
    path = Path(path)
    sample_id = path.stem if sample_id is None else sample_id
    if "\r" in sample_id:  # Python 3.11's csv.writer would leave it unquoted
        raise DataError(f"sample file {str(path)!r}: sample_id {sample_id!r} holds a "
                        "carriage return")  # repr: the path may hold the CR too
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # readline, not file iteration: fh.tell() must still mark the body's start
            header = next(csv.reader(iter(fh.readline, "")), None)
            if header is None:
                raise DataError(f"{path}: empty file")
            markers = tuple(h.strip() for h in header)
            repeated = next((m for i, m in enumerate(markers) if m in markers[:i]), None)
            if repeated is not None:
                raise DataError(f"{path}: marker {repeated!r} appears more than once "
                                "in the header")
            cells = _read_cells(fh, path, len(markers))
    # ValueError: a path with a NUL byte; csv.Error: a field over csv's size limit
    except (OSError, UnicodeDecodeError, ValueError, csv.Error) as e:
        raise DataError(f"cannot read sample file {path}: {e}") from e
    if cells.shape[0] == 0:
        raise DataError(f"{path}: no cell rows")
    bad = np.argwhere(~np.isfinite(cells))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"{path}: non-finite value at row {r + 1}, column {c + 1}")
    if expected_markers is not None:
        expected = tuple(str(m) for m in expected_markers)
        if sorted(markers) != sorted(expected):
            raise DataError(
                f"{path}: marker mismatch: file has {markers}, expected {expected}"
            )
        perm = [markers.index(m) for m in expected]
        cells = cells[:, perm]
        markers = expected
    return SampleSet(cells=cells, sample_id=sample_id, marker_names=markers)


def _read_cells(fh, path: Path, d: int) -> np.ndarray:
    """The (n, d) cell rows that follow the header, or an empty array when n is 0.

    numpy's C reader parses well-formed files. Anything it rejects, or a
    column count that differs from the header's, goes to the row scan, so
    accepted inputs, parsed values and error messages are the scan's.
    """
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            cells = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                               dtype=np.float64, ndmin=2)
        if cells.shape[0] == 0 or cells.shape[1] == d:
            return cells
    except ValueError:
        pass
    fh.seek(start)
    return _scan_rows(fh, path, d)


def _scan_rows(fh, path: Path, d: int) -> np.ndarray:
    """Parse rows one by one with float(), naming the first bad row and column.

    float() also takes a few spellings numpy's reader does not, such as
    "1_0" or non-ASCII digits; those rows are returned, not rejected.
    """
    rows = []
    for r, row in enumerate(csv.reader(fh), start=1):
        if not row:
            continue
        if len(row) != d:
            raise DataError(f"{path}: row {r} has {len(row)} fields, expected {d}")
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            for c, v in enumerate(row, start=1):
                try:
                    float(v)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value at row {r}, column {c}"
                    ) from None
    return np.array(rows, dtype=np.float64).reshape(len(rows), d)


def save_sample_set(sample: SampleSet, path) -> None:
    """Write a sample CSV with full-precision decimals (round-trips exactly)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["%" + FLOAT_FMT] * sample.d) + "\r\n"  # csv.writer's line end
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(sample.marker_names)
        cells = sample.cells
        for start in range(0, cells.shape[0], 4096):  # bounds the Python floats held at once
            fh.writelines(row % tuple(r) for r in cells[start:start + 4096].tolist())


def csv_line(fields: Sequence[str]) -> str:
    """fields as one CSV row without a line end, quoted only where one needs it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


def csv_fields(line: str) -> list[str]:
    """The fields of one csv_line row; an empty line has none."""
    return next(csv.reader([line]), [])


@dataclass(frozen=True)
class Manifest:
    """A checked manifest: one sample id, resolved path and label per sample.

    Reading it opens no sample file. labels are -1/+1, and label_names maps
    them back to the two label strings.
    """

    sample_ids: tuple[str, ...]
    paths: tuple[Path, ...]
    labels: tuple[int, ...]
    label_names: dict[int, str]


def read_manifest(path) -> Manifest:
    """Read and check a manifest CSV without reading the samples it lists.

    The header must be exactly sample_id,path,label; sample ids must be
    non-empty, unique and free of carriage returns and NUL bytes; N >= 2
    samples and exactly two label strings are required. The two label
    strings map to -1/+1 by lexicographic order (smaller string -> -1).
    Sample paths are resolved relative to the manifest's directory.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, ValueError, csv.Error) as e:
        raise DataError(f"cannot read manifest {path}: {e}") from e
    header = rows[0] if rows else None
    if header is None or tuple(h.strip() for h in header) != MANIFEST_HEADER:
        raise DataError(
            f"{path}: manifest header must be exactly "
            f"{','.join(MANIFEST_HEADER)!r}, got {header}"
        )
    entries, seen_ids = [], set()
    for r, row in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) != 3:
            raise DataError(f"{path}: manifest row {r} has {len(row)} fields, expected 3")
        entry = (row[0].strip(), row[1].strip(), row[2].strip())
        if not entry[0]:
            raise DataError(f"{path}: manifest row {r} has an empty sample_id")
        for char, name in (("\r", "a carriage return"), ("\0", "a NUL byte")):
            if char in entry[0]:
                raise DataError(f"{path}: manifest row {r} has {name} in sample_id "
                                f"{entry[0]!r}")
        if entry[0] in seen_ids:
            raise DataError(f"{path}: manifest row {r} repeats sample_id {entry[0]!r}")
        seen_ids.add(entry[0])
        entries.append(entry)
    if len(entries) < 2:
        raise DataError(f"{path}: N >= 2 required, manifest lists {len(entries)} sample(s)")
    label_values = sorted(set(e[2] for e in entries))
    if len(label_values) != 2:
        raise DataError(
            f"{path}: exactly two label values required, got {label_values}"
        )
    label_map = {label_values[0]: -1, label_values[1]: +1}
    return Manifest(
        sample_ids=tuple(e[0] for e in entries),
        paths=tuple(path.parent / e[1] for e in entries),  # an absolute e[1] wins
        labels=tuple(label_map[e[2]] for e in entries),
        label_names={-1: label_values[0], +1: label_values[1]},
    )


def map_samples(samples: Iterable[tuple[str, Path]], fn: Callable[[SampleSet], object],
                expected_markers: Sequence[str] | None = None) -> list:
    """fn(sample) for every (sample_id, path) pair in order, reading one sample at a time.

    The next sample is read only after fn has returned, so as long as fn's
    results do not hold the samples, at most one sample's cells are in
    memory. Every sample's columns are permuted to expected_markers, or to
    the first sample's marker order when None. An error in a sample stops
    the map there, so the first failing sample in order decides it.
    """
    out, expected = [], expected_markers
    for sample_id, sample_path in samples:
        sample = load_sample_set(sample_path, expected_markers=expected, sample_id=sample_id)
        expected = expected or sample.marker_names
        out.append(fn(sample))
        del sample  # freed before the next sample is read
    return out


def load_manifest(path, expected_markers: Sequence[str] | None = None) -> LabeledDataset:
    """Load a manifest CSV (see read_manifest) and all sample files it references.

    Every sample's columns are permuted to expected_markers, or to the first
    sample's marker order when None.
    """
    manifest = read_manifest(path)
    return LabeledDataset(
        samples=tuple(map_samples(zip(manifest.sample_ids, manifest.paths), lambda s: s,
                                  expected_markers)),
        labels=manifest.labels,
        label_names=manifest.label_names,
    )


def write_manifest(entries: Sequence[tuple[str, str, str]], path) -> None:
    """Write manifest rows of (sample_id, relative path, label string)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(entries)


def fit_standardizer(train: Sequence[SampleSet]) -> Standardizer:
    """Per-feature mean/std over the pooled cells of the training samples.

    Zero-variance features get std 1 so they pass through after centering.
    """
    if not train:
        raise ValueError("fit_standardizer requires at least one sample")
    pooled = np.concatenate([s.cells for s in train], axis=0)
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return Standardizer(mean=mean, std=std)


def apply_standardizer(std: Standardizer, sample: SampleSet) -> SampleSet:
    """Replace each cell x with (x - mean) / std."""
    if std.d != sample.d:
        raise ValueError(f"standardizer d={std.d} does not match sample d={sample.d}")
    cells = (sample.cells - std.mean) / std.std
    return SampleSet(cells=cells, sample_id=sample.sample_id,
                     marker_names=sample.marker_names)


def arcsinh_transform(sample: SampleSet, cofactor: float) -> SampleSet:
    """Apply the standard cytometry variance-stabilizer asinh(x / cofactor)."""
    if not cofactor > 0:
        raise ValueError(f"cofactor must be positive, got {cofactor}")
    cells = np.arcsinh(sample.cells / cofactor)
    return SampleSet(cells=cells, sample_id=sample.sample_id,
                     marker_names=sample.marker_names)

