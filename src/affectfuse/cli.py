"""Command-line entry points.

Seven subcommands cover the full pipeline: ``synth`` writes a synthetic
corpus, ``raaw`` and ``physio`` fuse annotations into gold standards,
``discretize`` turns continuous gold into sentiment classes, ``train`` fits
one sequence model on one feature set, ``eval`` scores prediction
directories, and ``fuse-late`` stacks several prediction streams.

``train`` and ``fuse-late`` both fit through :func:`affectfuse.seqmodel.fit`
(``fuse-late`` with the shapes of :mod:`affectfuse.latefusion`, on its streams
stacked per item) and share one output tail: ``model.json``, ``history.csv``,
``preds/`` and the devel metric line. Only reading the items and writing the
predictions depend on the task: gold grids and per-recording traces for
wilder, stress and physio; labelled segments (or per-segment logits) and
class labels for sent.

Conventions shared by every subcommand:
  * progress goes to stderr, machine-readable ``key=value`` lines to stdout
  * exit codes: 0 ok, 2 bad parameters or usage, 3 data problems, 4 numeric
    failures (non-finite loss or parameters)
  * ``--config FILE`` reads ``key = value`` lines overriding built-in
    defaults (explicit flags still win); a value goes through its option's
    type and choices, an on/off flag takes ``true`` or ``false``, ``none``
    unsets it, and a required option must be given as a flag
  * relative paths, ``--config`` and its path values included, resolve
    against ``AFFECTFUSE_DATA_ROOT`` when it is set
  * ``--jobs N`` (N >= 1) runs the per-recording fusion of ``raaw`` and
    ``physio`` in N worker processes; the other subcommands accept and ignore it
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import dataio, synth
from .core import grid_timestamps_ms
from .discretize import assign_nearest, fit_class_model, save_class_model, segment_features, validate_clusters
from .errors import DataError, DegenerateInputError, NumericError, ParameterError
from .fuse import FusionConfig, PhysioConfig, agreement_stats, physio_fuse, raaw
from .latefusion import REGRESSION_FUSION, SENT_FUSION
from .metrics import ScoreReport, ccc, macro_f1, partition_ccc
from .seqmodel import RegressorConfig, SequenceModel, TrainHistory, fit, save_checkpoint

__all__ = ["main", "build_parser"]

# Per-task protocol defaults: train window and hop in samples, and the
# mid-grid learning rate (override with --window, --hop and --lr).
TASK_DEFAULTS = {
    "wilder": (200, 100, 1e-3),
    "sent": (200, 100, 5e-3),
    "stress": (300, 50, 5e-4),
    "physio": (300, 50, 5e-4),
}

DATA_ROOT_ENV = "AFFECTFUSE_DATA_ROOT"


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(key: str, value) -> None:
    print(f"{key}={value}")


def _metric_key(config: RegressorConfig) -> str:
    """Stdout key of a model's devel score: macro F1 or CCC by its head."""
    return "devel_f1" if config.head == "classification" else "devel_ccc"


@contextmanager
def _data_of(*where):
    """Library calls on file data: a DataError or DegenerateInputError they raise is prefixed with ``where``,
    the input files or directories and any finer place in them, joined by ": ", for :func:`main` to report."""
    try:
        yield
    except (DataError, DegenerateInputError) as exc:
        raise type(exc)(": ".join(map(str, (*where, exc)))) from None


# ---------------------------------------------------------------------------
# config files


def _load_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in set_on:
            raise ParameterError(f"{path}:{lineno}: config key {key!r} is already set on line {set_on[key]}")
        set_on[key], values[key] = lineno, val.strip()
    return values


def _apply_config(values: dict[str, str], subparsers: list[argparse.ArgumentParser], command: str | None) -> None:
    """Make config values the defaults of the options of ``command`` they name, for argparse to convert
    with each option's ``type`` unless a flag overrides them. Unknown keys (``config`` and ``help`` too),
    required options, values outside ``choices``, on/off flags and ``none`` are decided here, before any
    data file is read."""
    unknown = set(values) - ({a.dest for sp in subparsers for a in sp._actions} - {"config", "help"})
    if unknown:
        raise ParameterError(f"unknown config key {', '.join(map(repr, sorted(unknown)))}")
    for sp in (sp for sp in subparsers if sp.prog.split()[-1] == command):
        defaults = {}
        for action in (a for a in sp._actions if a.dest in values):
            text, low, flag = values[action.dest], values[action.dest].lower(), action.option_strings[0]
            if action.required:
                raise ParameterError(f"config key {action.dest!r} names the required option {flag}; give it as a flag")
            if action.nargs == 0:
                if low not in ("true", "false"):
                    raise ParameterError(f"config key {action.dest!r} takes true or false, got {text!r}")
                defaults[action.dest] = low == "true"
            elif low in ("none", "null"):
                if action.default is not None:
                    raise ParameterError(f"config key {action.dest!r} cannot be none (default {action.default!r})")
                defaults[action.dest] = None
            elif action.choices is not None and text not in action.choices:
                raise ParameterError(f"config key {action.dest!r}: {flag} must be one of {action.choices}, got {text!r}")
            else:
                defaults[action.dest] = text
        sp.set_defaults(**defaults)


# ---------------------------------------------------------------------------
# parser


def _finite(text: str) -> float:
    """argparse type of every float option: a number other than NaN and +-inf."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _data_path(text: str) -> Path:
    """argparse type of every path option and of ``--config``: a relative path resolves against
    ``AFFECTFUSE_DATA_ROOT`` when that variable is set."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    path, root = Path(text), os.environ.get(DATA_ROOT_ENV)
    return Path(root) / path if root and not path.is_absolute() else path


def _int_at_least(low: int):
    """argparse type of an integer option that must be at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() rejects the text
    return parse


def _reference(text: str) -> str | int:
    """argparse type of ``--reference``: ``mean`` or a rater index."""
    if text == "mean":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be 'mean' or a rater index, got {text!r}") from None


def _feature_sets(text: str) -> tuple[str, ...]:
    """argparse type of ``synth --feature-sets``: comma-separated names, at least one, none repeated."""
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise argparse.ArgumentTypeError("must name at least one set")
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise argparse.ArgumentTypeError(f"names the set {repeated!r} twice")
    return names


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=101, help="base random seed")
    sp.add_argument("--jobs", type=_int_at_least(1), default=1,
                    help="worker processes for per-recording fusion (raaw, physio); >= 1")
    sp.add_argument("--config", type=_data_path, default=None, help="file of 'key = value' default overrides")


def _add_fusion_options(sp: argparse.ArgumentParser, kind: str) -> None:
    """Options of ``raaw`` and ``physio``; ``kind`` is the command's default annotation kind."""
    sp.add_argument("--annotations", type=_data_path, required=True, help="root with <rec>/<kind>/*.csv")
    sp.add_argument("--kind", default=kind, choices=("valence", "arousal", "physio"))
    sp.add_argument("--out", type=_data_path, required=True, help="directory for <rec>.csv gold files")
    sp.add_argument("--max-iter", type=int, default=20)
    sp.add_argument("--tol", type=_finite, default=1e-4)
    sp.add_argument("--band", type=int, default=None, help="warp band; default 10%% of length")
    sp.add_argument("--reference", type=_reference, default="mean", help="'mean' or a rater index")
    sp.add_argument("--dump-paths", type=_data_path, default=None, help="directory for warp path CSVs")


def _add_fit_options(sp: argparse.ArgumentParser) -> None:
    """Options of ``train`` and ``fuse-late``."""
    sp.add_argument("--task", required=True, choices=tuple(TASK_DEFAULTS))
    sp.add_argument("--gold", type=_data_path, default=None, help="regression: directory of <rec>.csv gold files")
    sp.add_argument("--partitions", type=_data_path, default=None, help="regression: partitions CSV")
    sp.add_argument("--out", type=_data_path, required=True)
    sp.add_argument("--window", type=int, default=None,
                    help="train window in samples; default: the task's (train), full sequences (fuse-late)")
    sp.add_argument("--hop", type=int, default=None,
                    help="train hop in samples; default: the task's (train), the window (fuse-late)")
    sp.add_argument("--epochs", type=int, default=100)
    sp.add_argument("--patience", type=int, default=15)
    sp.add_argument("--batch", type=int, default=32)


def build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="affectfuse",
        description="Continuous emotion annotation fusion and sequence baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: list[argparse.ArgumentParser] = []

    def register(sp: argparse.ArgumentParser, func) -> None:
        sp.set_defaults(func=func)
        subparsers.append(sp)

    p = sub.add_parser("synth", help="write a synthetic corpus")
    _add_common(p)
    p.add_argument("--out", type=_data_path, required=True, help="corpus output directory")
    p.add_argument("--recordings", type=int, default=6)
    p.add_argument("--duration", type=_finite, default=300.0, help="seconds per recording")
    p.add_argument("--rate", type=_finite, default=2.0, help="annotation rate in Hz")
    p.add_argument("--raters", type=int, default=5)
    p.add_argument("--max-lag", type=_finite, default=2.0, help="max rater lag in seconds")
    p.add_argument("--noise", type=_finite, default=0.05, help="rater noise sigma")
    p.add_argument("--scale-jitter", type=_finite, default=0.2)
    p.add_argument("--feature-dim", type=int, default=8)
    p.add_argument("--feature-noise", type=_finite, default=0.1)
    p.add_argument("--feature-sets", type=_feature_sets, default="modal_a,modal_b", help="comma-separated set names")
    p.add_argument("--kind", default="arousal", choices=("valence", "arousal", "physio"))
    register(p, cmd_synth)

    p = sub.add_parser("raaw", help="fuse rater annotations into gold standards")
    _add_common(p)
    _add_fusion_options(p, kind="arousal")
    register(p, _run_fusion)

    p = sub.add_parser("physio", help="fuse annotations with an EDA pseudo-rater")
    _add_common(p)
    _add_fusion_options(p, kind="physio")
    p.add_argument("--eda", type=_data_path, required=True, help="directory with <rec>.csv EDA signals")
    p.add_argument("--sg-window", type=int, default=26, help="smoothing window in samples")
    p.add_argument("--sg-order", type=int, default=3, help="smoothing polynomial order")
    register(p, _run_fusion)

    p = sub.add_parser("discretize", help="turn gold standards into sentiment classes")
    _add_common(p)
    p.add_argument("--gold", type=_data_path, required=True, help="directory of <rec>.csv gold files")
    p.add_argument("--segments", type=_data_path, required=True, help="segments CSV")
    p.add_argument("--target", required=True, choices=("valence", "arousal"))
    p.add_argument("--method", default=None, choices=("kmeans", "gmm"),
                   help="default: kmeans for valence, gmm for arousal")
    p.add_argument("--classes", type=_int_at_least(2), default=5)
    p.add_argument("--out", type=_data_path, required=True, help="labels CSV to write")
    p.add_argument("--model-out", type=_data_path, default=None, help="optional class model JSON")
    register(p, cmd_discretize)

    p = sub.add_parser("train", help="train one sequence model on one feature set")
    _add_common(p)
    _add_fit_options(p)
    p.add_argument("--features", type=_data_path, required=True, help="directory of <rec>.csv feature files")
    p.add_argument("--segments", type=_data_path, default=None, help="sent: segments CSV")
    p.add_argument("--labels", type=_data_path, default=None, help="sent: labels CSV")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--lr", type=_finite, default=None, help="default: mid-grid for the task")
    p.add_argument("--l2", type=_finite, default=0.0)
    register(p, cmd_train)

    p = sub.add_parser("eval", help="score prediction directories")
    _add_common(p)
    p.add_argument("--pred", type=_data_path, default=None, help="directory of <rec>.csv predictions")
    p.add_argument("--gold", type=_data_path, default=None, help="directory of <rec>.csv gold files")
    p.add_argument("--name", default="ccc", help="label for the first target")
    p.add_argument("--pred2", type=_data_path, default=None)
    p.add_argument("--gold2", type=_data_path, default=None)
    p.add_argument("--name2", default="ccc2")
    p.add_argument("--pred-labels", type=_data_path, default=None, help="classification: predicted labels CSV")
    p.add_argument("--gold-labels", type=_data_path, default=None, help="classification: gold labels CSV")
    p.add_argument("--classes", type=_int_at_least(2), default=5)
    p.add_argument("--per-recording", action="store_true", help="per-recording CCC to stderr")
    register(p, cmd_eval)

    p = sub.add_parser("fuse-late", help="fuse >=2 prediction streams with a small model")
    _add_common(p)
    _add_fit_options(p)
    p.add_argument("--streams", type=_data_path, nargs="+", required=True,
                   help="prediction roots with <split>/<rec>.csv (regression) "
                        "or <split>_logits.csv (sent)")
    p.add_argument("--gold-labels", type=_data_path, default=None, help="sent: labels CSV")
    register(p, cmd_fuse_late)

    return parser, subparsers


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        seed=args.seed,
        duration_s=args.duration,
        rate_hz=args.rate,
        n_raters=args.raters,
        max_lag_s=args.max_lag,
        noise_sigma=args.noise,
        scale_jitter=args.scale_jitter,
        feature_dim=args.feature_dim,
        feature_noise=args.feature_noise,
        kind=args.kind,
    )
    _info(f"writing {args.recordings} synthetic recordings to {args.out}")
    ids = synth.write_corpus(config, args.out, args.recordings, feature_sets=args.feature_sets)
    _emit("recordings", len(ids))
    _emit("feature_sets", ",".join(args.feature_sets))
    _emit("out", args.out)
    return 0


# ---------------------------------------------------------------------------
# raaw / physio (parallel per recording)


def _fuse_worker(task: tuple[Path, str, str, FusionConfig | PhysioConfig, Path | None]) -> tuple[str, object]:
    """raaw with a FusionConfig, physio fusion with a PhysioConfig, of one recording."""
    ann_root, rec, kind, config, eda_dir = task
    rater_set = dataio.read_rater_set(ann_root, rec, kind)
    if isinstance(config, FusionConfig):
        with _data_of(ann_root / rec / kind):
            return rec, raaw(rater_set, config)
    eda_path = eda_dir / f"{rec}.csv"
    eda = dataio.read_annotation_csv(eda_path, rater_id=eda_path.stem, kind="physio")
    with _data_of(ann_root / rec / kind, eda_path):
        return rec, physio_fuse(rater_set, eda, config)


def _run_fusion(args) -> int:
    """``raaw``, or ``physio`` with an EDA pseudo-rater, of every recording with ``--kind`` annotations."""
    recordings = dataio.list_recordings(args.annotations, args.kind)
    if not recordings:
        raise DataError(f"no recordings with {args.kind!r} annotations under {args.annotations}")
    config = FusionConfig(max_iter=args.max_iter, tol=args.tol, band=args.band, reference=args.reference)
    if args.command == "physio":
        config = PhysioConfig(fusion=config, sg_window=args.sg_window, sg_polyorder=args.sg_order)
    tasks = [(args.annotations, rec, args.kind, config, getattr(args, "eda", None)) for rec in recordings]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing, which one job never needs

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = dict(pool.map(_fuse_worker, tasks))
    else:
        results = dict(_fuse_worker(t) for t in tasks)

    golds = [results[rec] for rec in recordings]
    with _data_of(args.annotations):
        mean, std = agreement_stats(golds)
    for rec, gold in zip(recordings, golds):
        ts = grid_timestamps_ms(len(gold.values), gold.sample_rate_hz)
        dataio.write_gold_csv(args.out / f"{rec}.csv", ts, gold.values, gold.sidecar())
        _info(f"fused {rec} (agreement {gold.agreement_mean:.3f})")
        if args.dump_paths:
            for rid, path in zip(gold.metadata["rater_ids"], gold.alignment.paths):
                dataio.write_warp_path_csv(args.dump_paths / f"{rec}_{rid}.csv", path)
    _emit("recordings", len(recordings))
    _emit("agreement_mean", repr(round(mean, 6)))
    _emit("agreement_std", repr(round(std, 6)))
    _emit("out", args.out)
    return 0


# ---------------------------------------------------------------------------
# discretize


def cmd_discretize(args) -> int:
    segments = dataio.read_segments_csv(args.segments)
    method = args.method or ("kmeans" if args.target == "valence" else "gmm")

    recordings = dict.fromkeys(seg.recording_id for seg in segments)  # first-seen order
    golds = {rec: dataio.read_gold_csv(args.gold / f"{rec}.csv") for rec in recordings}

    rows = []
    for seg in segments:
        ts, values = golds[seg.recording_id]
        with _data_of(args.segments, f"segment {seg.segment_id!r}", args.gold / f"{seg.recording_id}.csv"):
            rows.append(segment_features(values[seg.rows(ts)], args.target))
    matrix = np.vstack(rows)

    train_rows = np.array([s.partition == "train" for s in segments])
    _info(f"fitting {method} on {int(train_rows.sum())} train segments ({args.target})")
    with _data_of(args.segments, args.gold):
        model = fit_class_model(
            matrix[train_rows], args.target, method,
            n_classes=args.classes, seed=args.seed,
        )
        projected = model.project(matrix)
        assignments = assign_nearest(model.centres, projected)
        report = validate_clusters(projected, assignments, n_classes=args.classes)

    labels = {seg.segment_id: int(lab) for seg, lab in zip(segments, assignments)}
    dataio.write_labels_csv(args.out, labels)
    if args.model_out:
        save_class_model(args.model_out, model)
        _info(f"class model written to {args.model_out}")
    _emit("silhouette", repr(round(report.silhouette, 6)))
    _emit("min_share_ok", report.min_share_ok)
    _emit("class_counts", ",".join(str(c) for c in report.class_counts))
    _emit("labels", args.out)
    return 0


# ---------------------------------------------------------------------------
# train


def _write_traces(ts_by_rec: dict[str, np.ndarray], outputs: dict, preds_dir: Path) -> None:
    """``<split>/<rec>.csv`` per-step predictions on each recording's gold timestamps."""
    for split, preds in outputs.items():
        for rec in sorted(preds):
            dataio.write_prediction_csv(preds_dir / split / f"{rec}.csv", ts_by_rec[rec], preds[rec])


def _write_labels(outputs: dict, preds_dir: Path, logits: bool = False) -> None:
    """``<split>_labels.csv``, the argmax of each logit row, per split; with ``logits`` also ``<split>_logits.csv``."""
    for split, rows in outputs.items():
        dataio.write_labels_csv(preds_dir / f"{split}_labels.csv", {i: int(np.argmax(v)) for i, v in rows.items()})
        if logits:
            dataio.write_logits_csv(preds_dir / f"{split}_logits.csv", rows)


def _write_run(out: Path, model: SequenceModel, history: TrainHistory, outputs, write_preds, **extra) -> int:
    """Output tail of ``train`` and ``fuse-late``: files, then the metric, ``extra`` and ``out`` lines."""
    save_checkpoint(out / "model.json", model)
    history.write_csv(out / "history.csv")
    write_preds(outputs, out / "preds")
    _emit(_metric_key(model.config), repr(round(history.best_metric(), 6)))
    for key, value in extra.items():
        _emit(key, value)
    _emit("out", out)
    return 0


def _regression_training(args):
    """Aligned features and gold of every recording with both, by split in gold-file order."""
    if not args.gold or not args.partitions:
        raise ParameterError("regression training needs --gold and --partitions")
    partition = dataio.read_partition_csv(args.partitions)

    gold_files = sorted(args.gold.glob("*.csv"))
    if not gold_files:
        raise DataError(f"no gold files under {args.gold}")
    inputs, targets, ts_by_rec = {}, {}, {}
    splits: dict[str, list[str]] = {s: [] for s in dataio.SPLITS}
    width = None
    for path in gold_files:
        rec = path.stem
        fpath = args.features / f"{rec}.csv"
        if not fpath.is_file():
            _info(f"skipping {rec}: no feature file {fpath}")
            continue
        ts, targets[rec] = dataio.read_gold_csv(path)
        fseq = dataio.read_feature_csv(fpath, rec, args.features.name, n_features=width)
        width = fseq.n_features
        if np.all(dataio.label_rows(fseq, ts) < 0):  # a step nothing reaches is zero-filled; reaching none is bad data
            what = "frame within half a label step" if fseq.end_timestamps_ms is None else "word covering a label step"
            raise DataError(f"{fpath}: no feature {what} of {path} ({ts[0]} to {ts[-1]} ms)")
        ts_by_rec[rec], inputs[rec] = ts, dataio.align_to_labels(fseq, ts)
        with _data_of(args.partitions):
            splits[partition.split_of(rec)].append(rec)
    if not inputs:
        raise DataError(f"no gold file under {args.gold} has a feature file under {args.features}")
    splits = {s: tuple(ids) for s, ids in splits.items() if ids}
    return inputs, targets, splits, {"head": "regression"}, partial(_write_traces, ts_by_rec)


def _sent_training(args):
    """Feature frames and labels of every segment by split, in segment order; test needs no label."""
    if not args.segments or not args.labels:
        raise ParameterError("sent training needs --segments and --labels")
    segments = dataio.read_segments_csv(args.segments)
    # discretize puts N segments in at most N classes; a larger class would size the head, so it is bad data
    labels = dataio.read_labels_csv(args.labels, n_classes=max(len(segments), 5))

    feats: dict[str, dataio.FeatureSequence] = {}
    inputs: dict[str, np.ndarray] = {}
    width = None
    for seg in segments:
        rec, fpath = seg.recording_id, args.features / f"{seg.recording_id}.csv"
        if rec not in feats:
            feats[rec] = dataio.read_feature_csv(fpath, rec, args.features.name, n_features=width)
            width = feats[rec].n_features
        fseq = feats[rec]
        rows = seg.rows(fseq.timestamps_ms, fseq.end_timestamps_ms)
        if not rows.size:
            raise DataError(f"{fpath}: no feature row in segment {seg.segment_id!r} of {args.segments}")
        inputs[seg.segment_id] = fseq.matrix[rows]

    splits = {s: tuple(seg.segment_id for seg in segments if seg.partition == s) for s in dataio.SPLITS}
    splits = {s: ids for s, ids in splits.items() if ids}
    head = {"head": "classification", "n_classes": max(max(labels.values()) + 1, 5)}
    return inputs, labels, splits, head, partial(_write_labels, logits=True)


def cmd_train(args) -> int:
    window_n, hop_n, lr = TASK_DEFAULTS[args.task]
    spec = dataio.WindowSpec(
        window=args.window if args.window is not None else window_n,
        hop=args.hop if args.hop is not None else hop_n,
    )
    # (inputs, targets and splits by item id, the config's head fields, prediction writer)
    read_items = _sent_training if args.task == "sent" else _regression_training
    files = (args.segments, args.labels) if args.task == "sent" else (args.gold, args.partitions)
    inputs, targets, splits, head, write_preds = read_items(args)
    config = RegressorConfig(
        input_dim=next(iter(inputs.values())).shape[1],
        hidden_dim=args.hidden,
        layers=args.layers,
        bidirectional=args.bidirectional,
        learning_rate=args.lr if args.lr is not None else lr,
        l2_penalty=args.l2,
        batch_size=args.batch,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=args.seed,
        **head,
    )
    metric = _metric_key(config)
    _info(
        f"training {args.task} {config.head} model: dim {config.input_dim}, "
        f"hidden {config.hidden_dim}, {len(splits.get('train', ()))} train items"
    )
    with _data_of(args.features, *files):
        model, history, outputs = fit(
            config, inputs, targets, splits, spec,
            progress=lambda e, l, m: _info(f"epoch {e}: loss {l:.4f} {metric} {m:.4f}"),
        )
    return _write_run(
        args.out, model, history, outputs, write_preds,
        best_epoch=history.best_epoch, epochs_run=len(history.rows),
    )


# ---------------------------------------------------------------------------
# eval


def _read_pred_dir(pred_dir: Path, gold_dir: Path):
    """Predictions and gold values of every prediction file under ``pred_dir``, each on its gold file's grid."""
    files = sorted(pred_dir.glob("*.csv"))
    if not files:
        raise DataError(f"no prediction files under {pred_dir}")
    preds, golds = {}, {}
    for path in files:
        ts, preds[path.stem] = dataio.read_prediction_csv(path)
        gold_ts, golds[path.stem] = dataio.read_gold_csv(gold_dir / path.name)
        dataio.check_same_grid(path, ts, gold_dir / path.name, gold_ts)
    return preds, golds


def cmd_eval(args) -> int:
    if args.pred_labels or args.gold_labels:
        if not (args.pred_labels and args.gold_labels):
            raise ParameterError("classification eval needs --pred-labels and --gold-labels")
        pred_map = dataio.read_labels_csv(args.pred_labels, n_classes=args.classes)
        gold_map = dataio.read_labels_csv(args.gold_labels, n_classes=args.classes)
        unlabelled = next((s for s in pred_map if s not in gold_map), None)
        if unlabelled is not None:
            raise DataError(f"{args.pred_labels}: segment {unlabelled!r} has no gold label in {args.gold_labels}")
        preds = np.array(list(pred_map.values()))
        golds = np.array([gold_map[s] for s in pred_map])
        score = macro_f1(preds, golds, n_classes=args.classes)
        _info(f"macro F1 over {len(pred_map)} segments")
        _emit("macro_f1", repr(round(score, 6)))
        return 0

    if not args.pred or not args.gold:
        raise ParameterError("regression eval needs --pred and --gold")
    preds, golds = _read_pred_dir(args.pred, args.gold)
    with _data_of(args.pred, args.gold):
        per_target = {args.name: partition_ccc(preds, golds)}
    if args.pred2 or args.gold2:
        if not (args.pred2 and args.gold2):
            raise ParameterError("second target needs both --pred2 and --gold2")
        preds2, golds2 = _read_pred_dir(args.pred2, args.gold2)
        with _data_of(args.pred2, args.gold2):
            per_target[args.name2] = partition_ccc(preds2, golds2)
    report = ScoreReport(per_target)
    if args.per_recording:
        for rec in sorted(preds):
            try:
                _info(f"{rec}: ccc {ccc(preds[rec], golds[rec]):.4f}")
            except ParameterError as exc:
                _info(f"{rec}: ccc undefined ({exc})")
    _info(report.table_text())
    for line in report.machine_lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------
# fuse-late


def _stream_names(stream_dirs: list[Path]) -> list[str]:
    """Short unique labels for stream directories (parent-qualified on clashes)."""
    names = []
    for i, d in enumerate(stream_dirs):
        base = d.name or f"stream{i}"
        if sum(1 for s in stream_dirs if (s.name or "") == base) > 1 and d.parent.name:
            base = f"{d.parent.name}_{base}"
        names.append(base)
    unique: list[str] = []
    for name in names:
        candidate, bump = name, 0
        while candidate in unique:
            bump += 1
            candidate = f"{name}{bump}"
        unique.append(candidate)
    return unique


def _regression_streams(args):
    """Per-recording traces of every stream stacked in ``--streams`` order, over recordings all streams
    cover, and the train and devel gold; each stream file and gold file must be on the first stream's grid."""
    if not args.gold or not args.partitions:
        raise ParameterError("regression fusion needs --gold and --partitions")
    partition = dataio.read_partition_csv(args.partitions)

    inputs, gold, ts_by_rec = {}, {}, {}
    splits: dict[str, list[str]] = {}
    for split in dataio.SPLITS:
        for rec in partition.recordings(split):
            paths = [d / split / f"{rec}.csv" for d in args.streams]
            if not all(p.is_file() for p in paths):
                continue
            splits.setdefault(split, []).append(rec)
            traces = []
            for path in paths:
                ts, trace = dataio.read_prediction_csv(path)
                dataio.check_same_grid(path, ts, paths[0], ts_by_rec.setdefault(rec, ts))
                traces.append(trace)
            inputs[rec] = np.stack(traces, axis=1)
            if split != "test":
                ts, gold[rec] = dataio.read_gold_csv(args.gold / f"{rec}.csv")
                dataio.check_same_grid(args.gold / f"{rec}.csv", ts, paths[0], ts_by_rec[rec])
    return inputs, gold, splits, {"head": "regression"}, partial(_write_traces, ts_by_rec)


def _sent_streams(args):
    """Per-segment logit rows of every stream, read from ``<split>_logits.csv``, as one step concatenated in
    ``--streams`` order.

    Every stream has the same split files with the same segment ids, no id in two of them, and each
    stream one logit width; ``fit`` finds a train or devel segment with no row in ``--gold-labels``.
    """
    if not args.gold_labels:
        raise ParameterError("sent fusion needs --gold-labels")

    splits: dict[str, tuple[str, ...]] = {}
    rows_of: dict[str, list[np.ndarray]] = {}  # segment -> its logit row of each stream read so far
    file_of: dict[str, Path] = {}  # segment -> the first stream's split file that lists it
    widths: dict[int, tuple[int, Path]] = {}  # stream -> its logit width and the file that set it
    for split in dataio.SPLITS:
        paths = [d / f"{split}_logits.csv" for d in args.streams]
        found = [p for p in paths if p.is_file()]
        if not found:
            continue
        if len(found) < len(paths):
            raise DataError(f"{next(p for p in paths if not p.is_file())}: missing, but {found[0]} exists")
        for k, path in enumerate(paths):
            rows = dataio.read_logits_csv(path)
            ids, width = tuple(sorted(rows)), len(next(iter(rows.values())))
            if splits.setdefault(split, ids) != ids:
                raise DataError(f"{path}: segment ids differ from {found[0]}")
            twice = next((i for i in ids if file_of.setdefault(i, found[0]) != found[0]), None)
            if twice is not None:
                raise DataError(f"{path}: segment {twice!r} is also in {file_of[twice]}")
            first_width, first = widths.setdefault(k, (width, path))
            if width != first_width:
                raise DataError(f"{path}: {width} logit columns, but {first} has {first_width}")
            for i in ids:
                rows_of.setdefault(i, []).append(rows[i])
    inputs = {i: np.concatenate(parts)[None, :] for i, parts in rows_of.items()}
    # one output per class, as many as the narrowest stream has logits; a gold class beyond them is bad data
    n_classes = min((width for width, _ in widths.values()), default=None)
    gold = dataio.read_labels_csv(args.gold_labels, n_classes=n_classes)
    return inputs, gold, splits, {"head": "classification", "n_classes": n_classes}, _write_labels


def cmd_fuse_late(args) -> int:
    if len(args.streams) < 2:
        raise ParameterError("late fusion needs at least two --streams directories")
    spec = dataio.WindowSpec(args.window, args.hop or args.window) if args.window is not None else None
    task = "sent" if args.task == "sent" else "regression"
    # (inputs, targets and splits by item id, the config's head fields, prediction writer), as for train
    read_streams = _sent_streams if task == "sent" else _regression_streams
    gold_files = (args.gold_labels,) if task == "sent" else (args.gold, args.partitions)
    inputs, targets, splits, head, write_preds = read_streams(args)

    _info(f"fusing {len(args.streams)} {task} streams over {len(inputs)} items")
    with _data_of(*args.streams, *gold_files):
        if not inputs:
            raise DegenerateInputError("late fusion has no item to size its model from")
        config = RegressorConfig(
            input_dim=next(iter(inputs.values())).shape[1],
            seed=args.seed,
            max_epochs=args.epochs,
            patience=args.patience,
            batch_size=args.batch,
            **(SENT_FUSION if task == "sent" else REGRESSION_FUSION),
            **head,
        )
        model, history, outputs = fit(config, inputs, targets, splits, spec)
    return _write_run(args.out, model, history, outputs, write_preds, streams=",".join(_stream_names(args.streams)))


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)

    try:
        try:
            # --config alone first, through the same type, so that its values become defaults of the full parse
            pre = argparse.ArgumentParser(prog="affectfuse", add_help=False)
            pre.add_argument("--config", type=_data_path)
            config_path = pre.parse_known_args(argv)[0].config
            if config_path is not None:
                command = next((t for t in argv if not t.startswith("-")), None)  # the top level takes no values
                _apply_config(_load_config_file(config_path), subparsers, command)
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except (DataError, DegenerateInputError) as exc:  # before ParameterError, which DegenerateInputError subclasses
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
