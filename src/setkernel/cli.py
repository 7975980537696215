"""Command-line pipeline: synth, featurize, herd, train, predict, crossval,
herd-bench, interpret, stats.

Every command takes --config/--seed/--out plus per-key flags; flags override
config-file values override defaults. main() resolves and checks them before
any command runs and passes them in. Each command returns the settings it
applied, which main() records in OUT/meta.txt. Runs are deterministic: identical
inputs, config, and seed produce byte-identical output files.
Exit codes: 0 ok, 2 config/validation, 3 data/IO, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import interpret as itp
from .classifier import (
    Pipeline,
    check_trainable,
    cross_validate,
    decision,
    fit_pipeline,
    load_model,
    save_model,
    stratified_folds,
)
from .config import (
    PipelineConfig,
    build_config,
    coerce_setting,
    derive_seed,
    parse_config_file,
)
from .data import (
    fmt_float,
    load_manifest,
    load_sample_set,  # noqa: F401  unused, but perfbench/trace_cli.py wraps this name
    map_samples,
    read_manifest,
    sample_name,
    save_sample_set,
)
from .embedding import embed_matrix
from .errors import ConfigError, DataError, NumericalError
from .herding import herd, uniform_subsample
from .rff import philox_rng, sample_frequencies
from .synth import generate_files, load_spec
from .workers import map_items

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# one --<key> flag per PipelineConfig field; the seed has its own integer --seed
_CONFIG_FLAGS = tuple(f.name for f in fields(PipelineConfig) if f.name != "seed")


def _effective_config(args) -> PipelineConfig:
    file_settings = parse_config_file(args.config) if args.config else None
    overrides = {}
    for key in _CONFIG_FLAGS:
        raw = getattr(args, key, None)
        if raw is not None:
            overrides[key] = coerce_setting(key, str(raw))
    if args.seed is not None:
        overrides["seed"] = int(args.seed)
    return build_config(file_settings, overrides)


def _config_comment(cfg: PipelineConfig) -> str:
    return "# config: " + " ".join(f"{k}={v}" for k, v in cfg.as_dict().items())


def _write_meta(out_dir: Path, cfg: PipelineConfig, command: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"command={command}", f"setkernel_version={__version__}",
             f"numpy_version={np.__version__}"]
    lines += [f"{k}={v}" for k, v in cfg.as_dict().items()]
    (out_dir / "meta.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows, cfg: PipelineConfig) -> None:
    """cfg's `# config:` line, a header and rows, a field quoted only where it
    holds a comma, quote or newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(_config_comment(cfg) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cell_file_name(sample_id: str) -> str:
    """`<sample_id>.csv`, refusing an id that would name a path outside `cells/`."""
    if sample_id in ("", ".", "..") or "/" in sample_id or "\\" in sample_id:
        raise DataError(f"sample_id {sample_id!r} cannot name a file in cells/")
    return f"{sample_id}.csv"


def _int_flag(args, name: str) -> int:
    """The integer value of --<name>, or a ConfigError naming the flag."""
    raw = getattr(args, name.replace("-", "_"))
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"--{name} must be an integer, got {raw!r}") from None


def cmd_synth(args, cfg: PipelineConfig) -> PipelineConfig:
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=int(args.seed))
    manifest = generate_files(spec, Path(args.out))
    print(f"wrote {manifest}")
    return cfg


def cmd_featurize(args, cfg: PipelineConfig) -> PipelineConfig:
    dataset = load_manifest(args.manifest)
    feats = Pipeline.fit(cfg, dataset.samples).embed(dataset.samples)
    out_dir = Path(args.out)
    rows = [[s.sample_id] + [fmt_float(v) for v in row]
            for s, row in zip(dataset.samples, feats)]
    header = ["sample_id"] + [f"mu_{j}" for j in range(feats.shape[1])]
    _write_csv(out_dir / "embeddings.csv", header, rows, cfg)
    print(f"wrote {out_dir / 'embeddings.csv'}")
    return cfg


def cmd_herd(args, cfg: PipelineConfig) -> PipelineConfig:
    dataset = load_manifest(args.manifest)
    names = [_cell_file_name(s.sample_id) for s in dataset.samples]
    pipe = Pipeline.fit(cfg, dataset.samples)
    # every sample is herded before any file is written
    picks = map_items(lambda s: pipe.keep(s)[1], dataset.samples, name=sample_name)
    out_dir = Path(args.out)
    index_rows = []
    for s, name, idx in zip(dataset.samples, names, picks):
        save_sample_set(replace(s, cells=s.cells[idx]), out_dir / "cells" / name)
        index_rows += [[s.sample_id, str(rank), str(i)] for rank, i in enumerate(idx)]
    _write_csv(out_dir / "indices.csv", ["sample_id", "selection_order", "row_index"],
               index_rows, cfg)
    print(f"wrote {out_dir / 'indices.csv'}")
    return cfg


def cmd_herd_bench(args, cfg: PipelineConfig) -> PipelineConfig:
    spec = load_spec(args.spec)
    try:
        m_values = sorted({int(v) for v in args.m_list.split(",")})
    except ValueError:
        raise ConfigError(f"bad m list {args.m_list!r}; expected comma-separated ints") from None
    if any(m < 1 for m in m_values):
        raise ConfigError("m values must be positive")
    if any(m > spec.cells_per_set for m in m_values):
        raise ConfigError(f"m values must not exceed cells_per_set={spec.cells_per_set}")
    n_seeds = _int_flag(args, "bench-seeds")
    if n_seeds < 1:
        raise ConfigError("bench-seeds must be >= 1")
    from .synth import _draw_sample

    errors = {("herding", m): [] for m in m_values}
    errors.update({("uniform", m): [] for m in m_values})
    m_max = max(m_values)
    for si in range(n_seeds):
        sample = _draw_sample(spec, spec.weights_neg,
                              derive_seed(spec.seed, f"bench:{si}"), f"bench_{si:03d}")
        rmap = sample_frequencies(spec.d, cfg.D, cfg.gamma,
                                  derive_seed(cfg.seed, f"bench-rff:{si}"))
        mu_full = embed_matrix(rmap, sample.cells)
        order = np.asarray(herd(rmap, sample, m_max).selected_indices)
        for m in m_values:
            mu_h = embed_matrix(rmap, sample.cells[order[:m]])
            errors[("herding", m)].append(float(np.linalg.norm(mu_h - mu_full)))
            res = uniform_subsample(sample, m,
                                    derive_seed(cfg.seed, f"bench-unif:{si}:{m}"))
            mu_u = embed_matrix(rmap, sample.cells[np.asarray(res.selected_indices)])
            errors[("uniform", m)].append(float(np.linalg.norm(mu_u - mu_full)))
    rows = [[method, str(m), fmt_float(np.mean(errors[(method, m)]))]
            for method in ("herding", "uniform") for m in m_values]
    out_dir = Path(args.out)
    _write_csv(out_dir / "herd_bench.csv", ["method", "m", "embedding_error"],
               rows, cfg)
    print(f"wrote {out_dir / 'herd_bench.csv'}")
    return cfg


def cmd_train(args, cfg: PipelineConfig) -> PipelineConfig:
    check_trainable(cfg)  # before the manifest or any sample is read
    dataset = load_manifest(args.manifest)
    model = fit_pipeline(dataset, cfg)
    save_model(model, args.model)
    print(f"wrote {args.model}")
    return cfg


def cmd_predict(args, _flags: PipelineConfig) -> PipelineConfig:
    if not args.manifest and not args.samples:  # before the model is read
        raise ConfigError("predict needs --manifest or at least one sample CSV")
    # main() checked the flags, but the model's settings apply
    model = load_model(args.model)
    pipe = Pipeline.from_model(model)
    manifest = read_manifest(args.manifest) if args.manifest else None
    # manifest rows, then positional files, whose sample_id is their stem
    samples = [*(zip(manifest.sample_ids, manifest.paths) if manifest else ()),
               *((Path(p).stem, p) for p in args.samples)]
    seen = set()
    for sample_id, _ in samples:
        if sample_id in seen:
            raise DataError(f"predict: sample_id {sample_id!r} appears twice among the "
                            "manifest ids and sample file stems")
        seen.add(sample_id)
    label_names = {-1: model.train_meta["label_neg"], +1: model.train_meta["label_pos"]}

    def row(s) -> list[str]:
        dec = decision(model, pipe.embed([s])[0])
        return [s.sample_id, fmt_float(dec), label_names[-1 if dec < 0 else +1]]

    # each raw sample is read, decided and dropped in a worker
    rows = map_samples(samples, row, model.train_meta["marker_names"] or None)
    out_dir = Path(args.out)
    _write_csv(out_dir / "predictions.csv", ["sample_id", "decision", "label"], rows,
               pipe.cfg)
    print(f"wrote {out_dir / 'predictions.csv'}")
    return pipe.cfg


def _sweep_values(raw: str | None, key: str,
                  cfg: PipelineConfig) -> list[tuple[str, float]]:
    """(text, value) for each entry of a --sweep-<key> list, each checked before
    any point runs; without the list, cfg's value alone."""
    if not raw:
        return [("", getattr(cfg, key))]
    values = []
    for v in raw.split(","):
        try:
            value = coerce_setting(key, v)
            replace(cfg, **{key: value})  # building the config checks it
        except ConfigError as e:
            raise ConfigError(f"--sweep-{key.replace('_', '-')}: {e}") from None
        values.append((v.strip(), value))
    return values


def _sweep_points(args, cfg: PipelineConfig) -> list[tuple[float, float, str]]:
    """(gamma, reg_c, report file name) for each point of the sweep, in run order.

    A swept point's report is report_gamma<gamma:g>_c<reg_c:g>.csv. Two
    points whose names coincide are refused before any point runs, since one
    report would overwrite the other.
    """
    gammas = _sweep_values(args.sweep_gamma, "gamma", cfg)
    regs = _sweep_values(args.sweep_reg_c, "reg_c", cfg)
    if not (args.sweep_gamma or args.sweep_reg_c):
        return [(cfg.gamma, cfg.reg_c, "report.csv")]
    points, named = [], {}
    for gi, (g_text, gamma) in enumerate(gammas):
        for ci, (c_text, reg_c) in enumerate(regs):
            name = f"report_gamma{gamma:g}_c{reg_c:g}.csv"
            if name in named:
                gj, cj = named[name]
                flag, first, second = (("gamma", gammas[gj][0], g_text) if gj != gi
                                       else ("reg-c", regs[cj][0], c_text))
                raise ConfigError(f"--sweep-{flag}: {first} and {second} both name {name}")
            named[name] = gi, ci
            points.append((gamma, reg_c, name))
    return points


def cmd_crossval(args, cfg: PipelineConfig) -> PipelineConfig:
    points = _sweep_points(args, cfg)
    perm_seed = None if args.permute_labels is None else _int_flag(args, "permute-labels")
    # the fold split's refusals (too many folds, a class too small) come before any
    # sample is read; permuting the labels changes no class count
    stratified_folds(read_manifest(args.manifest).labels, cfg.folds, cfg.seed)
    dataset = load_manifest(args.manifest)
    if perm_seed is not None:
        perm = philox_rng(perm_seed).permutation(dataset.N)
        dataset = replace(dataset, labels=tuple(dataset.labels[i] for i in perm))
    out_dir = Path(args.out)
    sweeping = args.sweep_gamma or args.sweep_reg_c
    summary_rows = []
    for gamma, reg_c, name in points:
        sub_cfg = replace(cfg, gamma=gamma, reg_c=reg_c)
        report = cross_validate(dataset, sub_cfg)
        rows = [[str(r), str(f), fmt_float(acc)]
                for r, accs in enumerate(report.accuracies)
                for f, acc in enumerate(accs)]
        _write_csv(out_dir / name, ["run", "fold", "accuracy"], rows, sub_cfg)
        line = f"{report.mean * 100:.2f} ± {report.std * 100:.2f}"
        summary_rows.append([fmt_float(v) for v in (gamma, reg_c, report.mean, report.std)])
        prefix = f"gamma={gamma:g} reg_c={reg_c:g} " if sweeping else ""
        print(f"{prefix}accuracy {line}")
    if sweeping:
        _write_csv(out_dir / "sweep.csv", ["gamma", "reg_c", "mean", "std"], summary_rows, cfg)
    return cfg


def cmd_interpret(args, flags: PipelineConfig) -> PipelineConfig:
    model = load_model(args.model)
    # Clustering runs in the feature space the model consumes (after its
    # stored preprocessing), which summary.txt records.
    pipe = Pipeline.from_model(model)
    # the model's settings apply; only the clustering's come from the command line
    cfg = replace(pipe.cfg, clusters_C=flags.clusters_C, seed=flags.seed)
    manifest = read_manifest(args.manifest)
    pool_range = itp.ClusterRange()

    def keep_and_score(sample):
        kept, idx = pipe.keep(sample)
        return kept, idx, itp.cell_scores(model, kept.cells)

    # each raw sample is read, selected, scored and dropped in a worker: only its
    # kept cells, their row indices in it and their scores outlive it, and join
    # the pool here
    subs, index_map, scores = zip(*map_samples(
        zip(manifest.sample_ids, manifest.paths), keep_and_score,
        model.train_meta["marker_names"] or None, lambda result: pool_range.add(result[0])))
    ids = [s.sample_id for s in subs]
    counts = [s.n for s in subs]
    pooled = np.concatenate([s.cells for s in subs], axis=0)
    del subs  # the pooled copy is the only one of the kept cells
    scores = np.concatenate(scores)
    clusters = itp.kmeans(pooled, cfg.clusters_C, derive_seed(cfg.seed, "kmeans"))
    del pooled  # k-means was its last reader
    region = itp.region_scores(model, clusters, scores, counts)
    out_dir = Path(args.out)

    owners = (sid for sid, n in zip(ids, counts) for _ in range(n))
    score_rows = ([sid, str(i), fmt_float(sc), str(c)] for sid, i, sc, c in zip(
        owners, np.concatenate(index_map), scores, clusters.assignments))
    _write_csv(out_dir / "scores.csv", ["sample_id", "cell_index", "score", "cluster_id"],
               score_rows, cfg)

    d = clusters.d
    header = (["cluster_id", "size", "centroid_score", "average_score"]
              + [f"centroid_{j}" for j in range(d)] + [f"gradient_{j}" for j in range(d)])
    cluster_rows = []
    sizes = np.bincount(clusters.assignments, minlength=clusters.C)
    for c in range(clusters.C):
        grad = itp.score_gradient(model, clusters.centroids[c])
        cluster_rows.append(
            [str(c), str(int(sizes[c])), fmt_float(region.centroid_scores[c]),
             fmt_float(region.average_scores[c])]
            + [fmt_float(v) for v in clusters.centroids[c]]
            + [fmt_float(v) for v in grad]
        )
    _write_csv(out_dir / "clusters.csv", header, cluster_rows, cfg)

    freq_header = ["sample_id", "label"] + [f"freq_{c}" for c in range(clusters.C)]
    freq_rows = [
        [sid, manifest.label_names[lab]] + [fmt_float(v) for v in freqs]
        for sid, lab, freqs in zip(manifest.sample_ids, manifest.labels, region.frequencies)
    ]
    _write_csv(out_dir / "frequencies.csv", freq_header, freq_rows, cfg)

    y = np.asarray(manifest.labels)
    stat_rows = []
    for c in range(clusters.C):
        f_neg = region.frequencies[y == -1, c]
        f_pos = region.frequencies[y == +1, c]
        p = itp.rank_sum_test(f_neg, f_pos)
        stat_rows.append([str(c), fmt_float(p)])
    _write_csv(out_dir / "stats.csv", ["cluster_id", "rank_sum_p"], stat_rows, cfg)

    try:
        r = itp.pearson(region.centroid_scores, region.average_scores)
        pearson_line = f"pearson_centroid_vs_average={fmt_float(r)}"
    except ValueError:
        pearson_line = "pearson_centroid_vs_average=n/a: zero variance"
    space_line = ("clustering_space=model feature space (preprocessing="
                  f"{model.train_meta['preprocessing']})")
    (out_dir / "summary.txt").write_text(
        _config_comment(cfg) + "\n" + pearson_line + "\n" + space_line + "\n", encoding="utf-8"
    )
    print(pearson_line)
    return cfg


def cmd_stats(args, cfg: PipelineConfig) -> PipelineConfig:
    manifest = read_manifest(args.manifest)
    labels_by_id = dict(zip(manifest.sample_ids, manifest.labels))
    freq_path = Path(args.frequencies)
    try:
        with freq_path.open(encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    # ValueError: a path with a NUL byte; csv.Error: a field over csv's size limit
    except (OSError, UnicodeDecodeError, ValueError, csv.Error) as e:
        raise DataError(f"cannot read frequencies file {freq_path}: {e}") from e
    while rows and rows[0][0].startswith("#"):  # the leading '# config' comment
        rows.pop(0)
    if not rows:
        raise DataError(f"{freq_path}: empty frequencies file")
    header = rows[0]
    col = f"freq_{args.cluster}"
    if col not in header:
        raise ConfigError(f"cluster {args.cluster} not present in {freq_path}")
    ci = header.index(col)
    neg, pos, seen = [], [], set()
    for r, fields in enumerate(rows[1:], start=1):
        if len(fields) != len(header):
            raise DataError(f"{freq_path}: row {r} has {len(fields)} fields, "
                            f"expected {len(header)}")
        sid = fields[0]
        if sid not in labels_by_id:
            raise DataError(f"sample {sid!r} in frequencies file missing from manifest")
        if sid in seen:
            raise DataError(f"{freq_path}: row {r} repeats sample_id {sid!r}")
        seen.add(sid)
        try:
            value = float(fields[ci])
        except ValueError:
            raise DataError(f"{freq_path}: row {r} column {col}: {fields[ci]!r} "
                            "is not a number") from None
        if not 0.0 <= value <= 1.0:  # nan fails this too
            raise DataError(f"{freq_path}: row {r} column {col}: {fields[ci]!r} "
                            "is not a frequency in [0, 1]")
        (neg if labels_by_id[sid] == -1 else pos).append(value)
    if not neg or not pos:
        raise DataError("both labels required to run the rank-sum test")
    p = itp.rank_sum_test(neg, pos)
    print(f"cluster {args.cluster} rank_sum_p {fmt_float(p)}")
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="base seed")
    parser.add_argument("--threads", type=int, choices=[1],
                        help="ignored; accepts only 1, kept so old scripts still run")
    parser.add_argument("--out", default="out", help="output directory")
    for key in _CONFIG_FLAGS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                            help=f"config key {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setkernel",
        description="Set-level classification with random-feature mean embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--spec", required=True, help="JSON mixture spec")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="write one embedding row per sample")
    p.add_argument("--manifest", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("herd", help="sub-select cells per sample")
    p.add_argument("--manifest", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_herd)

    p = sub.add_parser("herd-bench", help="embedding error vs m for both methods")
    p.add_argument("--spec", required=True, help="JSON mixture spec")
    p.add_argument("--m-list", default="25,50,100,200")
    p.add_argument("--bench-seeds", default="20")
    _add_common(p)
    p.set_defaults(func=cmd_herd_bench)

    p = sub.add_parser("train", help="train a model on every manifest sample")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, help="output model path")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decision values for samples")
    p.add_argument("--manifest")
    p.add_argument("samples", nargs="*", help="sample CSV paths")
    p.add_argument("--model", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("crossval", help="repeated stratified K-fold evaluation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--permute-labels", default=None,
                   help="permute labels with this seed (null control)")
    p.add_argument("--sweep-gamma", default=None, help="comma list of gamma values")
    p.add_argument("--sweep-reg-c", default=None, help="comma list of reg_c values")
    _add_common(p)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("interpret", help="scores, clusters, frequencies, stats CSVs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("stats", help="rank-sum p for one cluster's frequencies")
    p.add_argument("--manifest", required=True)
    p.add_argument("--frequencies", required=True, help="frequencies.csv from interpret")
    p.add_argument("--cluster", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        _write_meta(Path(args.out), args.func(args, _effective_config(args)), args.command)
        return EXIT_OK
    # LinAlgError subclasses ValueError, as ConfigError does, so it is caught first
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as e:
        code, error = EXIT_NUMERICAL, e
    except ValueError as e:
        code, error = EXIT_CONFIG, e
    except (DataError, OSError) as e:
        code, error = EXIT_DATA, e
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
