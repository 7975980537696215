"""Linear max-margin classifier over mean embeddings, CV protocol, model IO.

The training objective is 0.5*||beta||^2 + reg_c * mean_k hinge_k with an
unregularized bias; reg_c multiplies the MEAN hinge loss so duplicating the
training set leaves the optimum unchanged. The solver is a deterministic
two-coordinate dual ascent (maximal-violating-pair selection, smallest index
on ties); the recorded objective is the negated dual, which decreases at
every update, and convergence is declared on the exact duality gap.
"""

from __future__ import annotations

import csv
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import data as dat
from .config import PipelineConfig, coerce_setting, derive_seed
from .data import LabeledDataset, SampleSet, Standardizer, fmt_float
from .embedding import embed_matrix
from .errors import (ConfigError, DataError, ModelFormatError, NumericalError,
                     raise_on_overflow)
from .herding import herd, uniform_subsample
from .rff import GENERATOR_NAME, RffMap, philox_rng, sample_frequencies
from .workers import map_items

MODEL_MAGIC = "setkernel-model"
MODEL_VERSION = 2  # version 1 also stored W; it is still read
# load_model regenerates W (d x D/2 float64) only up to 1 GiB, so a corrupted d
# cannot make it allocate without bound.
MAX_W_VALUES = 1 << 27
# A version-1 file's stored W may differ from the regenerated draw by this many
# units in the last place per entry: the float64 log that gaussian_draws takes
# rounds differently at different x86-64 levels (AVX-512 or not).
W_ULPS = 2
# The pipeline settings a model records, typed as PipelineConfig holds them,
# in the order its META section lists them.
MODEL_SETTINGS = ("preprocessing", "m", "subsample_method", "seed")
# META's fields, as a model whose train_meta leaves them out holds them.
META_DEFAULTS = {"label_neg": "-1", "label_pos": "+1", "preprocessing": "none", "m": None,
                 "subsample_method": "herding", "seed": 0, "marker_names": ()}
SOLVER_TOL = 1e-6  # solve_hinge stops once the duality gap is below SOLVER_TOL * (1 + |primal|)
SOLVER_MAX_ITER = 100_000  # pair updates before solve_hinge stops unconverged


@dataclass(frozen=True)
class LinearModel:
    """Trained weights (beta, bias) tied to the feature map that made them.

    train_meta holds the META fields (every META_DEFAULTS key, filled in
    where the caller left one out): the two label strings, the
    MODEL_SETTINGS typed as PipelineConfig holds them, and marker_names as a
    tuple. It also holds the fitted standardizer and the solver's gap and
    convergence when the model has them.
    """

    beta: np.ndarray
    bias: float
    rff: RffMap
    reg_c: float
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64).ravel()
        if beta.shape[0] != self.rff.D:
            raise ValueError(f"beta has length {beta.shape[0]}, map D={self.rff.D}")
        if not np.all(np.isfinite(beta)) or not np.isfinite(self.bias):
            raise ValueError("model weights must be finite")
        beta = beta.copy()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "train_meta", {**META_DEFAULTS, **self.train_meta})


@dataclass(frozen=True)
class CvReport:
    """Per-run, per-fold held-out accuracies, and the mean and std of the runs'
    mean accuracies."""

    accuracies: tuple[tuple[float, ...], ...]  # [run][fold]
    mean: float
    std: float  # sample std over run-level means (ddof=1; 0 for a single run)


@dataclass(frozen=True)
class SolveResult:
    """Raw solver output: weights, bias, and convergence diagnostics."""

    w: np.ndarray
    bias: float
    objective_history: tuple[float, ...]
    gap: float
    n_updates: int
    converged: bool


def _optimal_bias(f: np.ndarray, y: np.ndarray) -> float:
    """Exact minimizer of sum_i hinge(y_i * (f_i + b)) over b.

    The objective is piecewise linear in b; the slope rises by one at each
    breakpoint (1 - f_i for positives, -1 - f_i for negatives), starting at
    -n_pos. The optimum is the interval where the slope crosses zero; its
    midpoint is returned for determinism. y must hold both classes, as
    solve_hinge checks.
    """
    events = np.sort(np.where(y > 0, 1.0 - f, -1.0 - f))
    n_pos = int(np.sum(y > 0))
    return float(0.5 * (events[n_pos - 1] + events[n_pos]))


def solve_hinge(X: np.ndarray, y: np.ndarray, reg_c: float = 1.0) -> SolveResult:
    """Minimize 0.5*||w||^2 + (reg_c/N) * sum_i hinge(y_i*(w.x_i + b)).

    Deterministic dual ascent on pairs selected by maximal KKT violation.
    Stops when the duality gap drops below SOLVER_TOL*(1+|primal|); hitting
    SOLVER_MAX_ITER updates first returns the best iterate with a warning.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = X.shape[0]
    if y.shape[0] != n:
        raise ValueError("X and y length mismatch")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("both classes required")
    if not 0 < reg_c < np.inf:
        raise ValueError(f"reg_c must be positive and finite, got {reg_c}")
    C = reg_c / n
    K = X @ X.T
    yy = np.outer(y, y)
    Q = K * yy
    alpha = np.zeros(n)
    g = -np.ones(n)  # gradient of 0.5*a'Qa - sum(a)
    bound_eps = 1e-12 * max(C, 1.0)
    check_every = max(n, 16)
    history: list[float] = []
    updates = 0
    kkt_done = False

    def state():
        w = X.T @ (alpha * y)
        f = X @ w
        b = _optimal_bias(f, y)
        hinge = np.maximum(0.0, 1.0 - y * (f + b)).sum()
        primal = 0.5 * float(w @ w) + C * hinge
        dual_min = 0.5 * float(alpha @ (g - 1.0))  # = -dual objective
        return w, b, primal, primal + dual_min

    while True:
        for _ in range(check_every):
            if updates >= SOLVER_MAX_ITER:
                break
            neg_yg = -y * g
            up = ((y > 0) & (alpha < C - bound_eps)) | ((y < 0) & (alpha > bound_eps))
            low = ((y < 0) & (alpha < C - bound_eps)) | ((y > 0) & (alpha > bound_eps))
            if not up.any() or not low.any():
                kkt_done = True
                break
            vu = np.where(up, neg_yg, -np.inf)
            i = int(np.argmax(vu))
            vl = np.where(low, neg_yg, np.inf)
            j = int(np.argmin(vl))
            if vu[i] - vl[j] <= 1e-12:
                kkt_done = True
                break
            s = y[i] * y[j]
            # curvature along (e_i - s*e_j): ||x_i - x_j||^2 regardless of s
            quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
            if quad <= 1e-12:
                quad = 1e-12
            t = -(g[i] - s * g[j]) / quad
            if s > 0:
                lo_t, hi_t = max(-alpha[i], alpha[j] - C), min(C - alpha[i], alpha[j])
            else:
                lo_t, hi_t = max(-alpha[i], -alpha[j]), min(C - alpha[i], C - alpha[j])
            t = min(max(t, lo_t), hi_t)
            if t == 0.0:
                kkt_done = True
                break
            alpha[i] += t
            alpha[j] -= s * t
            g += t * (Q[:, i] - s * Q[:, j])
            updates += 1
        w, b, primal, gap = state()
        history.append(0.5 * float(alpha @ (g - 1.0)))
        converged = gap <= SOLVER_TOL * (1.0 + abs(primal))
        if converged or kkt_done or updates >= SOLVER_MAX_ITER:
            break
    if not converged:
        warnings.warn(
            f"hinge solver stopped after {updates} updates with duality gap "
            f"{gap:.3e} > tol; returning best iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    return SolveResult(w=w, bias=b, objective_history=tuple(history),
                       gap=float(gap), n_updates=updates, converged=converged)


def train(rmap: RffMap, embeddings: Sequence[np.ndarray], labels: Sequence[int],
          reg_c: float = 1.0, train_meta: dict | None = None) -> LinearModel:
    """Fit on one feature row per sample; solve_hinge stops on SOLVER_TOL and SOLVER_MAX_ITER.

    train_meta gains the solver's gap and convergence.
    """
    res = solve_hinge(embeddings, np.asarray(labels, dtype=np.float64), reg_c=reg_c)
    meta = {**(train_meta or {}), "solver_gap": res.gap, "solver_converged": res.converged}
    return LinearModel(beta=res.w, bias=res.bias, rff=rmap, reg_c=float(reg_c),
                       train_meta=meta)


def decision(model: LinearModel, mu: np.ndarray) -> float:
    """Decision value mu . beta + bias for one feature row."""
    v = np.asarray(mu, dtype=np.float64).ravel()
    if v.shape[0] != model.rff.D:
        raise ValueError(f"embedding has D={v.shape[0]}, model expects D={model.rff.D}")
    return float(v @ model.beta + model.bias)


def predict_label(model: LinearModel, mu: np.ndarray) -> int:
    """Predicted label: sign of the decision value, with 0 mapped to +1."""
    return -1 if decision(model, mu) < 0 else +1


def stratified_folds(labels: Sequence[int], folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified K-fold assignment of -1/+1 labels; returns test-index arrays.

    Within each class the indices are shuffled by the seeded generator, then
    dealt to folds in a single round-robin pass across classes so fold sizes
    stay balanced. Every training partition holds both classes: each class
    of at least two samples takes consecutive deals, so with 2 <= folds it
    spans at least two folds, and no test fold holds a whole class.
    """
    y = np.asarray(labels)
    n = y.shape[0]
    if folds > n:
        raise ConfigError(f"folds exceeds sample count ({folds} > {n})")
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    rng = philox_rng(seed)
    assignment = np.empty(n, dtype=int)
    cursor = 0
    for cls in (-1, +1):
        idx = np.flatnonzero(y == cls)
        if idx.size < 2:
            raise ConfigError(
                f"class {cls} has {idx.size} sample(s); every training fold "
                f"needs both classes (>= 2 per class required)"
            )
        perm = idx[rng.permutation(idx.size)]
        for k in perm:
            assignment[k] = cursor % folds
            cursor += 1
    return [np.flatnonzero(assignment == f) for f in range(folds)]


@dataclass(frozen=True)
class Pipeline:
    """The fitted preprocess -> select -> embed chain every command runs.

    cfg is the effective PipelineConfig; rff and standardizer are what was
    fitted under it. prepare applies cfg.preprocessing (arcsinh with a
    cofactor, or the standardizer); select keeps cfg.m cells per sample by
    herding or by uniform draws, sample s seeded by
    derive_seed(cfg.seed, "uniform:s"); row turns one raw sample into its
    feature row: the mean random-feature vector (cfg.features "rff") or the
    per-marker mean ("naive") of the selected cells, and embed maps row over
    samples. A sample with no more than m cells, or any sample when m is
    None, keeps all its cells in storage order.
    """

    cfg: PipelineConfig
    rff: RffMap
    standardizer: Standardizer | None = None

    @classmethod
    def fit(cls, cfg: PipelineConfig, samples: Sequence[SampleSet]) -> "Pipeline":
        """Frequencies drawn from cfg.seed; a standardizer fits on samples' pooled cells."""
        std = dat.fit_standardizer(samples) if cfg.preprocessing == "standardize" else None
        rmap = sample_frequencies(samples[0].d, cfg.D, cfg.gamma, derive_seed(cfg.seed, "rff"))
        return cls(cfg, rmap, std)

    @classmethod
    def from_model(cls, model: LinearModel) -> "Pipeline":
        """The pipeline a trained model was fitted with.

        Its cfg holds the settings the model applies: the map's gamma and D,
        the model's reg_c and the MODEL_SETTINGS of its train_meta; the rest
        keep their defaults. Building it checks them.
        """
        cfg = PipelineConfig(gamma=model.rff.gamma, D=model.rff.D, reg_c=model.reg_c,
                             **{k: model.train_meta[k] for k in MODEL_SETTINGS})
        return cls(cfg, model.rff, model.train_meta.get("standardizer"))

    def prepare(self, sample: SampleSet) -> SampleSet:
        """The sample after the fitted preprocessing.

        A sample whose d is not the map's raises DataError, and an overflow
        NumericalError.
        """
        if sample.d != self.rff.d:
            raise DataError(f"sample {sample.sample_id!r} has d={sample.d}, "
                            f"model expects d={self.rff.d}")
        cofactor = self.cfg.arcsinh_cofactor()
        with raise_on_overflow(f"sample {sample.sample_id!r}: preprocessing "
                               f"{self.cfg.preprocessing} overflows float64"):
            if cofactor is not None:
                sample = dat.arcsinh_transform(sample, cofactor)
            if self.standardizer is not None:
                sample = dat.apply_standardizer(self.standardizer, sample)
        return sample

    def select(self, sample: SampleSet) -> np.ndarray:
        """Row indices of the kept cells of a prepared sample, in selection order.

        A herd sizes its own share of the cache budget (herding.herd).
        """
        m = self.cfg.m
        if m is None or m >= sample.n:
            return np.arange(sample.n)
        if self.cfg.subsample_method == "uniform":
            res = uniform_subsample(sample, m,
                                    derive_seed(self.cfg.seed, f"uniform:{sample.sample_id}"))
        else:
            with _naming(sample):
                res = herd(self.rff, sample, m)
        return np.asarray(res.selected_indices)

    def keep(self, sample: SampleSet) -> tuple[SampleSet, np.ndarray]:
        """The kept cells of a raw sample, prepared, and their row indices in it."""
        prepared = self.prepare(sample)
        idx = self.select(prepared)
        return replace(prepared, cells=prepared.cells[idx]), idx

    def row(self, sample: SampleSet) -> np.ndarray:
        """The feature row of one raw sample, computed in this process."""
        kept, _ = self.keep(sample)
        if self.cfg.features == "naive":
            return kept.cells.mean(axis=0)
        with _naming(sample):
            return embed_matrix(self.rff, kept.cells)

    def embed(self, samples: Sequence[SampleSet]) -> np.ndarray:
        """One feature row per raw sample, in order.

        The samples run through row in workers.map_items's pool; the rows
        are the same in-process.
        """
        return np.stack(map_items(self.row, samples, name=dat.sample_name))


@contextmanager
def _naming(sample: SampleSet):
    """Name the sample in a NumericalError raised while featurizing its cells."""
    try:
        yield
    except NumericalError as e:
        raise NumericalError(f"sample {sample.sample_id!r}: {e}") from None


def cross_validate(dataset: LabeledDataset, cfg: PipelineConfig) -> CvReport:
    """Stratified K-fold CV repeated over independent run seeds.

    Each run draws its own frequency matrix and fold split. When no
    fold-dependent preprocessing is configured, per-sample features are
    computed once per run and reused across folds.
    """
    y = np.asarray(dataset.labels)
    per_fold_fit = cfg.preprocessing == "standardize"
    all_acc: list[tuple[float, ...]] = []
    for r in range(cfg.runs):
        run_seed = derive_seed(cfg.seed, f"run:{r}")
        folds = stratified_folds(dataset.labels, cfg.folds,
                                 derive_seed(run_seed, "folds"))
        feats = None
        fold_acc = []
        for test_idx in folds:
            train_idx = np.setdiff1d(np.arange(dataset.N), test_idx)
            if feats is None or per_fold_fit:
                fit_on = ([dataset.samples[i] for i in train_idx] if per_fold_fit
                          else dataset.samples)
                feats = Pipeline.fit(replace(cfg, seed=run_seed), fit_on).embed(dataset.samples)
            res = solve_hinge(feats[train_idx], y[train_idx], reg_c=cfg.reg_c)
            scores = feats[test_idx] @ res.w + res.bias
            pred = np.where(scores < 0, -1, +1)
            fold_acc.append(float(np.mean(pred == y[test_idx])))
        all_acc.append(tuple(fold_acc))
    run_means = tuple(float(np.mean(a)) for a in all_acc)
    mean = float(np.mean(run_means))
    std = float(np.std(run_means, ddof=1)) if len(run_means) > 1 else 0.0
    return CvReport(accuracies=tuple(all_acc), mean=mean, std=std)


def check_trainable(cfg: PipelineConfig) -> None:
    """Refuse settings whose model fit_pipeline could not train and save_model save."""
    if cfg.features != "rff":
        raise ConfigError("only features=rff models can be trained and saved")


def fit_pipeline(dataset: LabeledDataset, cfg: PipelineConfig) -> LinearModel:
    """Train one model on every sample of the dataset (no held-out split)."""
    check_trainable(cfg)
    pipe = Pipeline.fit(cfg, dataset.samples)
    meta = {
        "label_neg": dataset.label_names[-1],
        "label_pos": dataset.label_names[+1],
        **{k: getattr(cfg, k) for k in MODEL_SETTINGS},
        "marker_names": dataset.marker_names,
    }
    if pipe.standardizer is not None:
        meta["standardizer"] = pipe.standardizer
    return train(pipe.rff, pipe.embed(dataset.samples), dataset.labels, reg_c=cfg.reg_c,
                 train_meta=meta)


def _within_ulps(a: np.ndarray, b: np.ndarray, ulps: int) -> bool:
    """Whether every entry of float64 a is within ulps units in the last place of b's.

    The bit patterns are mapped to integers in float order; a distance past
    int64's range wraps to one at least 2**53 from zero, so it never passes.
    """
    ordered = [np.where(v < 0, np.iinfo(np.int64).min - v, v)
               for v in (a.view(np.int64), b.view(np.int64))]
    apart = ordered[0] - ordered[1]
    return bool(((apart >= -ulps) & (apart <= ulps)).all())


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(fmt_float(v) for v in row)


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])


def _layout(v1: bool, standardizer: bool, solver: bool) -> list[tuple[str, str | None]]:
    """The model file's lines after its header, in file order.

    (section, None) is a section's own line and (section, key) a "key value"
    line in it. A version-1 file has a W section, whose d rows of W follow its
    line, where a version-2 file has its d line. The standardizer and solver
    pairs close META when the model has them.
    """
    meta = ["label_neg", "label_pos", *MODEL_SETTINGS, "reg_c", "marker_names"]
    meta += ["standardizer_mean", "standardizer_std"] if standardizer else []
    meta += ["solver_gap", "solver_converged"] if solver else []
    sections = {"KERNEL": ["gamma", "D", "seed", "generator"] + ([] if v1 else ["d"]),
                **({"W": []} if v1 else {}),
                "LINEAR": ["beta", "bias"], "META": meta, "END": []}
    return [(section, key) for section, keys in sections.items() for key in (None, *keys)]


def save_model(model: LinearModel, path) -> None:
    """Write the model as UTF-8 text in _layout's line order; numbers round-trip exactly.

    W is not written: (d, D, gamma, seed, generator) regenerate it bit for bit,
    so a map whose W is not its seed's draw is refused. The MODEL_SETTINGS
    are spelled as PipelineConfig.as_dict spells them, and marker_names as
    one CSV row (data.csv_line). Each field takes one line, so a label, marker
    name or setting holding a line break is refused before anything is written. The
    standardizer is written when the model has one, and the solver's duality
    gap and convergence when the model has them.
    """
    rff = model.rff
    if sample_frequencies(rff.d, rff.D, rff.gamma, rff.seed).W.tobytes() != rff.W.tobytes():
        raise ValueError("model W is not the draw of its seed and cannot be saved")
    meta = model.train_meta
    settings = Pipeline.from_model(model).cfg.as_dict()
    text = {"label_neg": str(meta["label_neg"]), "label_pos": str(meta["label_pos"]),
            **{k: settings[k] for k in MODEL_SETTINGS},
            "marker_names": dat.csv_line(meta["marker_names"])}
    for key, value in text.items():
        if "".join(value.splitlines()) != value:
            raise DataError(f"{key} {value!r} holds a line break, which a model file "
                            "cannot store")
    values = {("KERNEL", "gamma"): fmt_float(rff.gamma), ("KERNEL", "D"): rff.D,
              ("KERNEL", "seed"): rff.seed, ("KERNEL", "generator"): GENERATOR_NAME,
              ("KERNEL", "d"): rff.d, ("LINEAR", "beta"): _fmt_row(model.beta),
              ("LINEAR", "bias"): fmt_float(model.bias), ("META", "reg_c"): fmt_float(model.reg_c),
              **{("META", k): v for k, v in text.items()}}
    std = meta.get("standardizer")
    if std is not None:
        values["META", "standardizer_mean"] = _fmt_row(std.mean)
        values["META", "standardizer_std"] = _fmt_row(std.std)
    solver = "solver_gap" in meta  # absent from a model loaded from a file without it
    if solver:
        values["META", "solver_gap"] = fmt_float(meta["solver_gap"])
        values["META", "solver_converged"] = str(bool(meta["solver_converged"])).lower()
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}"]
    lines += [section if key is None else f"{key} {values[section, key]}"
              for section, key in _layout(False, std is not None, solver)]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path) -> LinearModel:
    """Read a model file written by save_model; rejects unknown versions.

    Each line after the header must be the one _layout puts there: a section
    line matches its name once stripped, a "key value" line its key. The file
    has the standardizer or the solver pair when it has a standardizer_mean or
    a solver_gap line before END; lines after END are not read. W is
    regenerated from the seed. A version-1 file's W rows are the lines between
    W and LINEAR, and d is their count; each entry must be within W_ULPS of
    that draw, and the model keeps the stored W.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ModelFormatError(f"cannot read model file {path}: {e}") from e
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError(f"{path}: truncated model file, missing header")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a {MODEL_MAGIC} file")
    if head[1] not in ("1", str(MODEL_VERSION)):
        raise ModelFormatError(f"{path}: unsupported model version {head[1]}")
    v1, body, rows = head[1] == "1", lines[1:], []
    if v1:
        w = _layout(True, False, False).index(("W", None)) + 1
        end = next((i for i in range(w, len(body)) if body[i].strip() == "LINEAR"), len(body))
        rows, body = body[w:end], body[:w] + body[end:]
    end = next((i for i, line in enumerate(body) if line.strip() == "END"), len(body))
    keys = {line.split(" ", 1)[0] for line in body[:end]}
    values = {}
    for i, (section, key) in enumerate(_layout(v1, "standardizer_mean" in keys,
                                               "solver_gap" in keys)):
        if i >= len(body):
            missing = section if key is None else f"{section} {key}"
            raise ModelFormatError(f"{path}: truncated model file, missing {missing}")
        line = body[i]
        if key is None:
            if line.strip() != section:
                raise ModelFormatError(f"{path}: expected {section!r}, got {line!r}")
            continue
        word, _, values[section, key] = line.partition(" ")
        if word != key:
            raise ModelFormatError(f"{path}: expected {section} field {key!r}, got {line!r}")
    try:
        gamma = float(values["KERNEL", "gamma"])
        D = int(values["KERNEL", "D"])
        seed = int(values["KERNEL", "seed"])
        generator = values["KERNEL", "generator"]
        W = np.array([_floats(row) for row in rows], ndmin=2) if v1 else None
        d = W.shape[0] if v1 else int(values["KERNEL", "d"])
        beta = _floats(values["LINEAR", "beta"])
        bias = float(values["LINEAR", "bias"])
        meta: dict = {"label_neg": values["META", "label_neg"],
                      "label_pos": values["META", "label_pos"],
                      **{k: coerce_setting(k, values["META", k]) for k in MODEL_SETTINGS},
                      "marker_names": tuple(dat.csv_fields(values["META", "marker_names"]))}
        reg_c = float(values["META", "reg_c"])
        if ("META", "standardizer_mean") in values:
            meta["standardizer"] = Standardizer(mean=_floats(values["META", "standardizer_mean"]),
                                                std=_floats(values["META", "standardizer_std"]))
        if ("META", "solver_gap") in values:  # older files end without the solver fields
            meta["solver_gap"] = float(values["META", "solver_gap"])
            converged = values["META", "solver_converged"]
            if converged not in ("true", "false"):
                raise ValueError(f"solver_converged must be true or false, got {converged!r}")
            meta["solver_converged"] = converged == "true"
        if generator != GENERATOR_NAME:
            raise ModelFormatError(
                f"{path}: unknown frequency generator {generator!r} "
                f"(this build supports {GENERATOR_NAME!r})"
            )
        # Checked before W is drawn, so a corrupted d or D cannot size a huge W.
        if meta["marker_names"] and len(meta["marker_names"]) != d:
            raise ModelFormatError(f"{path}: d={d} disagrees with marker_names")
        if beta.shape[0] != D:
            raise ModelFormatError(f"{path}: beta has length {beta.shape[0]}, D={D}")
        if d * (D // 2) > MAX_W_VALUES:
            raise ModelFormatError(f"{path}: d={d} and D={D} need a W of {d * (D // 2)} "
                                   f"values, more than the {MAX_W_VALUES} regenerated")
        std = meta.get("standardizer")
        if (std is not None) != (meta["preprocessing"] == "standardize"):
            raise ModelFormatError(f"{path}: preprocessing {meta['preprocessing']} "
                                   f"{'with' if std is not None else 'without'} a standardizer")
        if std is not None and std.d != d:
            raise ModelFormatError(f"{path}: standardizer has d={std.d}, model d={d}")
        rmap = sample_frequencies(d, D, gamma, seed)
        if W is not None:
            if W.shape != rmap.W.shape or not _within_ulps(W, rmap.W, W_ULPS):
                raise ModelFormatError(
                    f"{path}: stored W ({W.shape[0]}x{W.shape[1]}) differs from the W "
                    f"that seed {seed} draws for d={d}, D={D} by more than {W_ULPS} ulps"
                )
            rmap = replace(rmap, W=W)
        model = LinearModel(beta=beta, bias=bias, rff=rmap, reg_c=reg_c, train_meta=meta)
        Pipeline.from_model(model)  # builds, so checks, the settings predict applies
        return model
    # ConfigError is a ValueError; csv.Error: a marker_names field over csv's size limit
    except (ValueError, IndexError, MemoryError, csv.Error) as e:
        raise ModelFormatError(f"{path}: corrupted model file: {e}") from e
