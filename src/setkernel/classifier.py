"""Linear max-margin classifier over mean embeddings, CV protocol, model IO.

The training objective is 0.5*||beta||^2 + reg_c * mean_k hinge_k with an
unregularized bias; reg_c multiplies the MEAN hinge loss so duplicating the
training set leaves the optimum unchanged. The solver is a deterministic
two-coordinate dual ascent (maximal-violating-pair selection, smallest index
on ties); the recorded objective is the negated dual, which decreases at
every update, and convergence is declared on the exact duality gap.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import data as dat
from .config import PipelineConfig, derive_seed
from .data import FLOAT_FMT, LabeledDataset, SampleSet, Standardizer
from .embedding import MeanEmbedding, embed_matrix, naive_mean
from .errors import ConfigError, ModelFormatError, NumericalError
from .herding import herd, uniform_subsample
from .rff import GENERATOR_NAME, RffMap, philox_rng, sample_frequencies

MODEL_MAGIC = "setkernel-model"
MODEL_VERSION = 2  # version 1 also stored W; it is still read
# load_model regenerates W (d x D/2 float64) only up to 1 GiB, so a corrupted d
# cannot make it allocate without bound.
MAX_W_VALUES = 1 << 27


@dataclass(frozen=True)
class LinearModel:
    """Trained weights (beta, bias) tied to the feature map that made them."""

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


@dataclass(frozen=True)
class CvReport:
    """Per-run, per-fold held-out accuracies plus run-level summary."""

    accuracies: tuple[tuple[float, ...], ...]  # [run][fold]
    run_means: tuple[float, ...]
    mean: float
    std: float  # sample std over run-level means (ddof=1; 0 for a single run)
    config: dict


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
    midpoint is returned for determinism.
    """
    events = np.sort(np.where(y > 0, 1.0 - f, -1.0 - f))
    n_pos = int(np.sum(y > 0))
    if n_pos == 0 or n_pos == events.shape[0]:
        raise ValueError("both classes required")
    return float(0.5 * (events[n_pos - 1] + events[n_pos]))


def solve_hinge(X: np.ndarray, y: np.ndarray, reg_c: float = 1.0,
                tol: float = 1e-6, max_iter: int = 100_000) -> SolveResult:
    """Minimize 0.5*||w||^2 + (reg_c/N) * sum_i hinge(y_i*(w.x_i + b)).

    Deterministic dual ascent on pairs selected by maximal KKT violation.
    Stops when the duality gap drops below tol*(1+|primal|); hitting max_iter
    first returns the best iterate with a warning.
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
            if updates >= max_iter:
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
        converged = gap <= tol * (1.0 + abs(primal))
        if converged or kkt_done or updates >= max_iter:
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


def train(rmap: RffMap, embeddings: Sequence[MeanEmbedding], labels: Sequence[int],
          reg_c: float = 1.0, tol: float = 1e-6, max_iter: int = 100_000,
          train_meta: dict | None = None) -> LinearModel:
    """Fit the linear model on sample embeddings with labels in {-1, +1}."""
    X = np.stack([e.mu for e in embeddings])
    y = np.asarray(labels, dtype=np.float64)
    res = solve_hinge(X, y, reg_c=reg_c, tol=tol, max_iter=max_iter)
    meta = dict(train_meta or {})
    meta.setdefault("solver_gap", res.gap)
    meta.setdefault("solver_converged", res.converged)
    return LinearModel(beta=res.w, bias=res.bias, rff=rmap, reg_c=float(reg_c),
                       train_meta=meta)


def decision(model: LinearModel, mu: MeanEmbedding | np.ndarray) -> float:
    """Decision value mu . beta + bias for one embedding."""
    v = mu.mu if isinstance(mu, MeanEmbedding) else np.asarray(mu, dtype=np.float64).ravel()
    if v.shape[0] != model.rff.D:
        raise ValueError(f"embedding has D={v.shape[0]}, model expects D={model.rff.D}")
    return float(v @ model.beta + model.bias)


def predict_label(model: LinearModel, mu: MeanEmbedding | np.ndarray) -> int:
    """Predicted label: sign of the decision value, with 0 mapped to +1."""
    return -1 if decision(model, mu) < 0 else +1


def stratified_folds(labels: Sequence[int], folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified K-fold assignment; returns test-index arrays.

    Within each class the indices are shuffled by the seeded generator, then
    dealt to folds in a single round-robin pass across classes so fold sizes
    stay balanced. Every training partition must contain both classes.
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
    out = [np.flatnonzero(assignment == f) for f in range(folds)]
    for f, test_idx in enumerate(out):
        train_y = set(y[np.setdiff1d(np.arange(n), test_idx)])
        if train_y != {-1, +1}:
            raise ConfigError(f"training partition of fold {f} has a single class")
    return out


@dataclass(frozen=True)
class Pipeline:
    """The fitted preprocess -> select -> embed chain every command runs.

    prepare applies the preprocessing (arcsinh with a cofactor, or a fitted
    Standardizer); select keeps m cells per sample by herding or seeded
    uniform draws; embed turns raw samples into feature rows: the mean
    random-feature vector (rff) or the per-marker mean (naive) of the
    selected cells. A sample with no more than m cells, or any sample when
    m is None, keeps all its cells in storage order.
    """

    rff: RffMap
    m: int | None
    subsample_method: str
    seed: int  # uniform draws for sample s use derive_seed(seed, "uniform:s")
    features: str = "rff"
    cofactor: float | None = None
    standardizer: Standardizer | None = None

    @classmethod
    def fit(cls, cfg: PipelineConfig, samples: Sequence[SampleSet], seed: int) -> "Pipeline":
        """Frequencies drawn from seed; a standardizer fits on samples' pooled cells."""
        std = dat.fit_standardizer(samples) if cfg.preprocessing == "standardize" else None
        rmap = sample_frequencies(samples[0].d, cfg.D, cfg.gamma, derive_seed(seed, "rff"))
        return cls(rff=rmap, m=cfg.m, subsample_method=cfg.subsample_method, seed=seed,
                   features=cfg.features, cofactor=cfg.arcsinh_cofactor(), standardizer=std)

    @classmethod
    def from_model(cls, model: LinearModel) -> "Pipeline":
        """The pipeline a trained model was fitted with."""
        cfg = model_config(model)
        return cls(rff=model.rff, m=cfg.m, subsample_method=cfg.subsample_method,
                   seed=cfg.seed, cofactor=cfg.arcsinh_cofactor(),
                   standardizer=model.train_meta.get("standardizer"))

    def prepare(self, sample: SampleSet) -> SampleSet:
        """The sample after the fitted preprocessing."""
        if sample.d != self.rff.d:
            raise ValueError(f"sample has d={sample.d}, model expects d={self.rff.d}")
        if self.cofactor is not None:
            sample = dat.arcsinh_transform(sample, self.cofactor)
        if self.standardizer is not None:
            sample = dat.apply_standardizer(self.standardizer, sample)
        return sample

    def select(self, sample: SampleSet) -> np.ndarray:
        """Row indices of the kept cells of a prepared sample, in selection order."""
        if self.m is None or self.m >= sample.n:
            return np.arange(sample.n)
        if self.subsample_method == "uniform":
            res = uniform_subsample(sample, self.m,
                                    derive_seed(self.seed, f"uniform:{sample.sample_id}"))
        else:
            with _naming(sample):
                res = herd(self.rff, sample, self.m)
        return np.asarray(res.selected_indices)

    def embed(self, samples: Sequence[SampleSet]) -> np.ndarray:
        """One feature row per raw sample."""

        def one(sample: SampleSet) -> np.ndarray:
            prepared = self.prepare(sample)
            kept = replace(prepared, cells=prepared.cells[self.select(prepared)])
            if self.features == "naive":
                return naive_mean(kept)
            with _naming(sample):
                return embed_matrix(self.rff, kept.cells)

        return np.stack([one(s) for s in samples])


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
    cfg.validate()
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
                feats = Pipeline.fit(cfg, fit_on, run_seed).embed(dataset.samples)
            res = solve_hinge(feats[train_idx], y[train_idx], reg_c=cfg.reg_c)
            scores = feats[test_idx] @ res.w + res.bias
            pred = np.where(scores < 0, -1, +1)
            fold_acc.append(float(np.mean(pred == y[test_idx])))
        all_acc.append(tuple(fold_acc))
    run_means = tuple(float(np.mean(a)) for a in all_acc)
    mean = float(np.mean(run_means))
    std = float(np.std(run_means, ddof=1)) if len(run_means) > 1 else 0.0
    return CvReport(accuracies=tuple(all_acc), run_means=run_means, mean=mean,
                    std=std, config=cfg.as_dict())


def fit_pipeline(dataset: LabeledDataset, cfg: PipelineConfig) -> LinearModel:
    """Train one model on every sample of the dataset (no held-out split)."""
    cfg.validate()
    if cfg.features != "rff":
        raise ConfigError("only features=rff models can be trained and saved")
    pipe = Pipeline.fit(cfg, dataset.samples, cfg.seed)
    feats = pipe.embed(dataset.samples)
    res = solve_hinge(feats, np.asarray(dataset.labels, dtype=float), reg_c=cfg.reg_c)
    meta = {
        "label_neg": dataset.label_names[-1],
        "label_pos": dataset.label_names[+1],
        "preprocessing": cfg.preprocessing,
        "m": "all" if cfg.m is None else str(cfg.m),
        "subsample_method": cfg.subsample_method,
        "seed": str(cfg.seed),
        "marker_names": ",".join(dataset.marker_names),
        "solver_gap": res.gap,
        "solver_converged": res.converged,
    }
    if pipe.standardizer is not None:
        meta["standardizer"] = pipe.standardizer
    return LinearModel(beta=res.w, bias=res.bias, rff=pipe.rff, reg_c=cfg.reg_c,
                       train_meta=meta)


def model_config(model: LinearModel) -> PipelineConfig:
    """Pipeline settings a saved model applies at predict time."""
    meta = model.train_meta
    m = meta.get("m", "all")
    return PipelineConfig(
        gamma=model.rff.gamma,
        D=model.rff.D,
        m=None if m == "all" else int(m),
        reg_c=model.reg_c,
        seed=int(meta.get("seed", "0")),
        subsample_method=meta.get("subsample_method", "herding"),
        preprocessing=meta.get("preprocessing", "none"),
    )


def apply_model(model: LinearModel, sample: SampleSet) -> float:
    """Decision value for one raw sample via the model's stored pipeline."""
    return decision(model, Pipeline.from_model(model).embed([sample])[0])


def _fmt(v: float) -> str:
    return format(float(v), FLOAT_FMT)


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(_fmt(v) for v in row)


def save_model(model: LinearModel, path) -> None:
    """Write the model as UTF-8 text; all numeric fields round-trip exactly.

    W is not written: (d, D, gamma, seed, generator) regenerate it bit for bit,
    so a map whose W is not its seed's draw is refused.
    """
    rff = model.rff
    if sample_frequencies(rff.d, rff.D, rff.gamma, rff.seed).W.tobytes() != rff.W.tobytes():
        raise ValueError("model W is not the draw of its seed and cannot be saved")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = model.train_meta
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}"]
    lines.append("KERNEL")
    lines.append(f"gamma {_fmt(rff.gamma)}")
    lines.append(f"D {rff.D}")
    lines.append(f"seed {rff.seed}")
    lines.append(f"generator {GENERATOR_NAME}")
    lines.append(f"d {rff.d}")
    lines.append("LINEAR")
    lines.append(f"beta {_fmt_row(model.beta)}")
    lines.append(f"bias {_fmt(model.bias)}")
    lines.append("META")
    lines.append(f"label_neg {meta.get('label_neg', '-1')}")
    lines.append(f"label_pos {meta.get('label_pos', '+1')}")
    lines.append(f"preprocessing {meta.get('preprocessing', 'none')}")
    lines.append(f"m {meta.get('m', 'all')}")
    lines.append(f"subsample_method {meta.get('subsample_method', 'herding')}")
    lines.append(f"seed {meta.get('seed', '0')}")
    lines.append(f"reg_c {_fmt(model.reg_c)}")
    lines.append(f"marker_names {meta.get('marker_names', '')}")
    std = meta.get("standardizer")
    if std is not None:
        lines.append(f"standardizer_mean {_fmt_row(std.mean)}")
        lines.append(f"standardizer_std {_fmt_row(std.std)}")
    lines.append("END")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _Cursor:
    def __init__(self, lines, path):
        self.lines = lines
        self.pos = 0
        self.path = path

    def next(self, section: str) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"{self.path}: truncated model file, missing {section}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, token: str) -> None:
        line = self.next(token)
        if line.strip() != token:
            raise ModelFormatError(f"{self.path}: expected {token!r}, got {line!r}")

    def keyed(self, key: str, section: str) -> str:
        line = self.next(f"{section} {key}")
        parts = line.split(" ", 1)
        if parts[0] != key:
            raise ModelFormatError(
                f"{self.path}: expected {section} field {key!r}, got {line!r}"
            )
        return parts[1] if len(parts) > 1 else ""


def load_model(path) -> LinearModel:
    """Read a model file written by save_model; rejects unknown versions.

    W is regenerated from the seed. A version-1 file's stored W must equal
    that draw bit for bit.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ModelFormatError(f"cannot read model file {path}: {e}") from e
    cur = _Cursor(text.splitlines(), path)
    head = cur.next("header").split()
    if len(head) != 2 or head[0] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a {MODEL_MAGIC} file")
    if head[1] not in ("1", str(MODEL_VERSION)):
        raise ModelFormatError(f"{path}: unsupported model version {head[1]}")
    cur.expect("KERNEL")
    try:
        gamma = float(cur.keyed("gamma", "KERNEL"))
        D = int(cur.keyed("D", "KERNEL"))
        seed = int(cur.keyed("seed", "KERNEL"))
        generator = cur.keyed("generator", "KERNEL")
        W = None
        if head[1] == "1":
            cur.expect("W")
            rows = []  # d is implied by the number of W rows before LINEAR
            while (line := cur.next("W rows or LINEAR")).strip() != "LINEAR":
                rows.append([float(v) for v in line.split()])
            W = np.array(rows, dtype=np.float64, ndmin=2)
            d = W.shape[0]
        else:
            d = int(cur.keyed("d", "KERNEL"))
            cur.expect("LINEAR")
        beta = np.array([float(v) for v in cur.keyed("beta", "LINEAR").split()])
        bias = float(cur.keyed("bias", "LINEAR"))
        cur.expect("META")
        meta: dict = {}
        for key in ("label_neg", "label_pos", "preprocessing", "m",
                    "subsample_method", "seed"):
            meta[key] = cur.keyed(key, "META")
        reg_c = float(cur.keyed("reg_c", "META"))
        meta["marker_names"] = cur.keyed("marker_names", "META")
        nxt = cur.next("META or END")
        if nxt.split(" ", 1)[0] == "standardizer_mean":
            mean = np.array([float(v) for v in nxt.split(" ", 1)[1].split()])
            std_line = cur.keyed("standardizer_std", "META")
            std = np.array([float(v) for v in std_line.split()])
            meta["standardizer"] = Standardizer(mean=mean, std=std)
            nxt = cur.next("END")
        if nxt.strip() != "END":
            raise ModelFormatError(f"{path}: expected END, got {nxt!r}")
        if generator != GENERATOR_NAME:
            raise ModelFormatError(
                f"{path}: unknown frequency generator {generator!r} "
                f"(this build supports {GENERATOR_NAME!r})"
            )
        # Checked before W is drawn, so a corrupted d or D cannot size a huge W.
        if meta["marker_names"] and len(meta["marker_names"].split(",")) != d:
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
        if W is not None and (W.shape != rmap.W.shape or W.tobytes() != rmap.W.tobytes()):
            raise ModelFormatError(
                f"{path}: stored W ({W.shape[0]}x{W.shape[1]}) differs from the W "
                f"that seed {seed} draws for d={d}, D={D}"
            )
        model = LinearModel(beta=beta, bias=bias, rff=rmap, reg_c=reg_c, train_meta=meta)
        model_config(model).validate()  # the pipeline settings predict applies
        return model
    except (ValueError, IndexError, MemoryError) as e:  # ConfigError is a ValueError
        raise ModelFormatError(f"{path}: corrupted model file: {e}") from e
