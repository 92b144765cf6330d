"""Command-line entry points.

Seven subcommands cover the full pipeline: ``synth`` writes a synthetic
corpus, ``raaw`` and ``physio`` fuse annotations into gold standards,
``discretize`` turns continuous gold into sentiment classes, ``train`` fits
one sequence model on one feature set, ``eval`` scores prediction
directories, and ``fuse-late`` stacks several prediction streams.

``train`` and ``fuse-late`` both fit through :func:`affectfuse.seqmodel.fit`
(``fuse-late`` by way of :func:`affectfuse.latefusion.fuse_predictions`) and
share one output tail: ``model.json``, ``history.csv``, ``preds/`` and the
devel metric line. Only reading the items and writing the predictions depend
on the task: gold grids and per-recording traces for wilder, stress and
physio; labelled segments (or per-segment logits) and class labels for sent.

Conventions shared by every subcommand:
  * progress goes to stderr, machine-readable ``key=value`` lines to stdout
  * exit codes: 0 ok, 2 bad parameters or usage, 3 data problems, 4 numeric
    failures (non-finite loss or parameters)
  * ``--config FILE`` reads ``key = value`` lines overriding built-in
    defaults (explicit flags still win); a value goes through its option's
    type and choices, an on/off flag takes ``true`` or ``false``, ``none``
    unsets it, and a required option must be given as a flag
  * relative paths resolve against ``AFFECTFUSE_DATA_ROOT`` when it is set
  * ``--jobs N`` (N >= 1) runs the per-recording fusion of ``raaw`` and
    ``physio`` in N worker processes; the other subcommands accept and ignore it
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import dataio, synth
from .core import grid_timestamps_ms
from .discretize import (
    fit_class_model,
    model_project,
    assign_nearest,
    save_class_model,
    segment_features,
    validate_clusters,
)
from .errors import DataError, NumericError, ParameterError
from .fuse import FusionConfig, PhysioConfig, agreement_stats, physio_fuse, raaw
from .latefusion import FusionPlan, fuse_predictions
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


def _resolve(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    root = os.environ.get(DATA_ROOT_ENV)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(key: str, value) -> None:
    print(f"{key}={value}")


def _metric_key(config: RegressorConfig) -> str:
    """Stdout key of a model's devel score: macro F1 or CCC by its head."""
    return "devel_f1" if config.head == "classification" else "devel_ccc"


# ---------------------------------------------------------------------------
# config files


def _load_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config(values: dict[str, str], subparsers: list[argparse.ArgumentParser], command: str | None) -> None:
    """Make config values the defaults of the options of ``command`` they name, for argparse to convert
    with each option's ``type`` unless a flag overrides them. Unknown keys, required options, values
    outside ``choices``, on/off flags and ``none`` are decided here, before any data file is read."""
    unknown = set(values) - {a.dest for sp in subparsers for a in sp._actions}
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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=101, help="base random seed")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for per-recording fusion (raaw, physio); >= 1")
    sp.add_argument("--config", default=None, help="file of 'key = value' default overrides")


def _add_fusion_options(sp: argparse.ArgumentParser, kind: str) -> None:
    """Options of ``raaw`` and ``physio``; ``kind`` is the command's default annotation kind."""
    sp.add_argument("--annotations", required=True, help="root with <rec>/<kind>/*.csv")
    sp.add_argument("--kind", default=kind, choices=("valence", "arousal", "physio"))
    sp.add_argument("--out", required=True, help="directory for <rec>.csv gold files")
    sp.add_argument("--max-iter", type=int, default=20)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--band", type=int, default=None, help="warp band; default 10%% of length")
    sp.add_argument("--reference", default="mean", help="'mean' or a rater index")
    sp.add_argument("--dump-paths", default=None, help="directory for warp path CSVs")


def _add_fit_options(sp: argparse.ArgumentParser) -> None:
    """Options of ``train`` and ``fuse-late``."""
    sp.add_argument("--task", required=True, choices=tuple(TASK_DEFAULTS))
    sp.add_argument("--gold", default=None, help="regression: directory of <rec>.csv gold files")
    sp.add_argument("--partitions", default=None, help="regression: partitions CSV")
    sp.add_argument("--out", required=True)
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
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--recordings", type=int, default=6)
    p.add_argument("--duration", type=float, default=300.0, help="seconds per recording")
    p.add_argument("--rate", type=float, default=2.0, help="annotation rate in Hz")
    p.add_argument("--raters", type=int, default=5)
    p.add_argument("--max-lag", type=float, default=2.0, help="max rater lag in seconds")
    p.add_argument("--noise", type=float, default=0.05, help="rater noise sigma")
    p.add_argument("--scale-jitter", type=float, default=0.2)
    p.add_argument("--feature-dim", type=int, default=8)
    p.add_argument("--feature-noise", type=float, default=0.1)
    p.add_argument("--feature-sets", default="modal_a,modal_b", help="comma-separated set names")
    p.add_argument("--kind", default="arousal", choices=("valence", "arousal", "physio"))
    register(p, cmd_synth)

    p = sub.add_parser("raaw", help="fuse rater annotations into gold standards")
    _add_common(p)
    _add_fusion_options(p, kind="arousal")
    register(p, _run_fusion)

    p = sub.add_parser("physio", help="fuse annotations with an EDA pseudo-rater")
    _add_common(p)
    _add_fusion_options(p, kind="physio")
    p.add_argument("--eda", required=True, help="directory with <rec>.csv EDA signals")
    p.add_argument("--sg-window", type=int, default=26, help="smoothing window in samples")
    p.add_argument("--sg-order", type=int, default=3, help="smoothing polynomial order")
    p.add_argument("--target-hz", type=float, default=None, help="EDA resample rate; default label rate")
    register(p, _run_fusion)

    p = sub.add_parser("discretize", help="turn gold standards into sentiment classes")
    _add_common(p)
    p.add_argument("--gold", required=True, help="directory of <rec>.csv gold files")
    p.add_argument("--segments", required=True, help="segments CSV")
    p.add_argument("--target", required=True, choices=("valence", "arousal"))
    p.add_argument("--method", default=None, choices=("kmeans", "gmm"),
                   help="default: kmeans for valence, gmm for arousal")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--out", required=True, help="labels CSV to write")
    p.add_argument("--model-out", default=None, help="optional class model JSON")
    register(p, cmd_discretize)

    p = sub.add_parser("train", help="train one sequence model on one feature set")
    _add_common(p)
    _add_fit_options(p)
    p.add_argument("--features", required=True, help="directory of <rec>.csv feature files")
    p.add_argument("--segments", default=None, help="sent: segments CSV")
    p.add_argument("--labels", default=None, help="sent: labels CSV")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--lr", type=float, default=None, help="default: mid-grid for the task")
    p.add_argument("--l2", type=float, default=0.0)
    register(p, cmd_train)

    p = sub.add_parser("eval", help="score prediction directories")
    _add_common(p)
    p.add_argument("--pred", default=None, help="directory of <rec>.csv predictions")
    p.add_argument("--gold", default=None, help="directory of <rec>.csv gold files")
    p.add_argument("--name", default="ccc", help="label for the first target")
    p.add_argument("--pred2", default=None)
    p.add_argument("--gold2", default=None)
    p.add_argument("--name2", default="ccc2")
    p.add_argument("--pred-labels", default=None, help="classification: predicted labels CSV")
    p.add_argument("--gold-labels", default=None, help="classification: gold labels CSV")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--per-recording", action="store_true", help="per-recording CCC to stderr")
    register(p, cmd_eval)

    p = sub.add_parser("fuse-late", help="fuse >=2 prediction streams with a small model")
    _add_common(p)
    _add_fit_options(p)
    p.add_argument("--streams", nargs="+", required=True,
                   help="prediction roots with <split>/<rec>.csv (regression) "
                        "or <split>_logits.csv (sent)")
    p.add_argument("--gold-labels", default=None, help="sent: labels CSV")
    register(p, cmd_fuse_late)

    return parser, subparsers


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    out = _resolve(args.out)
    feature_sets = tuple(s.strip() for s in args.feature_sets.split(",") if s.strip())
    if not feature_sets:
        raise ParameterError("--feature-sets must name at least one set")
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
    _info(f"writing {args.recordings} synthetic recordings to {out}")
    ids = synth.write_corpus(config, out, args.recordings, feature_sets=feature_sets)
    _emit("recordings", len(ids))
    _emit("feature_sets", ",".join(feature_sets))
    _emit("out", out)
    return 0


# ---------------------------------------------------------------------------
# raaw / physio (parallel per recording)


def _fuse_worker(task: tuple[Path, str, str, FusionConfig | PhysioConfig, Path | None]) -> tuple[str, object]:
    """raaw with a FusionConfig, physio fusion with a PhysioConfig, of one recording."""
    ann_root, rec, kind, config, eda_dir = task
    rater_set = dataio.read_rater_set(ann_root, rec, kind)
    if isinstance(config, FusionConfig):
        return rec, raaw(rater_set, config)
    eda_path = eda_dir / f"{rec}.csv"
    if not eda_path.is_file():
        raise ParameterError(f"missing EDA file for recording {rec!r}: {eda_path}")
    eda = dataio.read_annotation_csv(eda_path, rater_id=eda_path.stem, kind="physio")
    return rec, physio_fuse(rater_set, eda, config)


def _parse_reference(text: str) -> str | int:
    if text == "mean":
        return "mean"
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"--reference must be 'mean' or an integer, got {text!r}")


def _run_fusion(args) -> int:
    """``raaw``, or ``physio`` with an EDA pseudo-rater, of every recording with ``--kind`` annotations."""
    ann_root = _resolve(args.annotations)
    out = _resolve(args.out)
    recordings = dataio.list_recordings(ann_root, args.kind)
    if not recordings:
        raise DataError(f"no recordings with {args.kind!r} annotations under {ann_root}")
    config = FusionConfig(
        max_iter=args.max_iter, tol=args.tol, band=args.band, reference=_parse_reference(args.reference)
    )
    eda_dir = None
    if args.command == "physio":
        eda_dir = _resolve(args.eda)
        config = PhysioConfig(
            fusion=config, sg_window=args.sg_window, sg_polyorder=args.sg_order, target_hz=args.target_hz
        )
    tasks = [(ann_root, rec, args.kind, config, eda_dir) for rec in recordings]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = dict(pool.map(_fuse_worker, tasks))
    else:
        results = dict(_fuse_worker(t) for t in tasks)

    golds = [results[rec] for rec in recordings]
    for rec, gold in zip(recordings, golds):
        ts = grid_timestamps_ms(len(gold.values), gold.sample_rate_hz)
        dataio.write_gold_csv(out / f"{rec}.csv", ts, gold.values, gold.sidecar())
        _info(f"fused {rec} (agreement {gold.agreement_mean:.3f})")
        if args.dump_paths:
            dump = _resolve(args.dump_paths)
            for rid, path in zip(gold.metadata["rater_ids"], gold.alignment.paths):
                dataio.write_warp_path_csv(dump / f"{rec}_{rid}.csv", path)
    mean, std = agreement_stats(golds)
    _emit("recordings", len(recordings))
    _emit("agreement_mean", repr(round(mean, 6)))
    _emit("agreement_std", repr(round(std, 6)))
    _emit("out", out)
    return 0


# ---------------------------------------------------------------------------
# discretize


def cmd_discretize(args) -> int:
    gold_dir = _resolve(args.gold)
    segments = dataio.read_segments_csv(_resolve(args.segments))
    if not segments:
        raise DataError(f"no segments in {args.segments}")
    method = args.method or ("kmeans" if args.target == "valence" else "gmm")

    recordings = dict.fromkeys(seg.recording_id for seg in segments)  # first-seen order
    golds = {rec: dataio.read_gold_csv(gold_dir / f"{rec}.csv") for rec in recordings}

    rows = []
    for seg in segments:
        ts, values = golds[seg.recording_id]
        mask = dataio.slice_by_span(ts, seg.start_ms, seg.end_ms)
        if int(mask.sum()) < 2:
            raise DataError(f"segment {seg.segment_id!r} covers fewer than 2 gold samples")
        feats = segment_features(values[mask], args.target, segment_id=seg.segment_id)
        rows.append(feats.vector())
    matrix = np.vstack(rows)

    train_rows = np.array([s.partition == "train" for s in segments])
    if int(train_rows.sum()) < 6:
        raise DataError("need at least 6 train segments to fit the class model")
    _info(f"fitting {method} on {int(train_rows.sum())} train segments ({args.target})")
    model = fit_class_model(
        matrix[train_rows], args.target, method,
        n_classes=args.classes, seed=args.seed,
    )
    projected = model_project(model, matrix)
    assignments = assign_nearest(model.centres, projected)
    report = validate_clusters(projected, assignments, n_classes=args.classes)

    out = _resolve(args.out)
    labels = {seg.segment_id: int(lab) for seg, lab in zip(segments, assignments)}
    dataio.write_labels_csv(out, labels)
    if args.model_out:
        save_class_model(_resolve(args.model_out), model)
        _info(f"class model written to {args.model_out}")
    _emit("silhouette", repr(round(report.silhouette, 6)))
    _emit("min_share_ok", report.min_share_ok)
    _emit("class_counts", ",".join(str(c) for c in report.class_counts))
    _emit("labels", out)
    return 0


# ---------------------------------------------------------------------------
# train


def _write_traces(ts_by_rec: dict[str, np.ndarray], outputs: dict, preds_dir: Path) -> None:
    """``<split>/<rec>.csv`` per-step predictions on each recording's gold timestamps."""
    for split, preds in outputs.items():
        for rec in sorted(preds):
            dataio.write_prediction_csv(preds_dir / split / f"{rec}.csv", ts_by_rec[rec], preds[rec])


def _write_labels(outputs: dict, preds_dir: Path, logits: bool = False) -> None:
    """``<split>_labels.csv`` per split; logit rows (``logits``) get argmax labels and ``<split>_logits.csv``."""
    for split, rows in outputs.items():
        labels = {i: int(np.argmax(v)) for i, v in rows.items()} if logits else rows
        dataio.write_labels_csv(preds_dir / f"{split}_labels.csv", labels)
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


def _regression_training(args, features_dir: Path):
    """Aligned features and gold of every recording with both, by split in gold-file order."""
    if not args.gold or not args.partitions:
        raise ParameterError("regression training needs --gold and --partitions")
    gold_dir = _resolve(args.gold)
    partition = dataio.read_partition_csv(_resolve(args.partitions))

    gold_files = sorted(gold_dir.glob("*.csv"))
    if not gold_files:
        raise DataError(f"no gold files under {gold_dir}")
    inputs, targets, ts_by_rec = {}, {}, {}
    splits: dict[str, list[str]] = {s: [] for s in dataio.SPLITS}
    width = None
    for path in gold_files:
        rec = path.stem
        fpath = features_dir / f"{rec}.csv"
        if not fpath.is_file():
            _info(f"skipping {rec}: no feature file {fpath}")
            continue
        ts_by_rec[rec], targets[rec] = dataio.read_gold_csv(path)
        fseq = dataio.read_feature_csv(fpath, rec, features_dir.name, n_features=width)
        width = fseq.n_features
        inputs[rec] = dataio.align_to_labels(fseq, ts_by_rec[rec])
        splits[partition.split_of(rec)].append(rec)
    if not splits["train"] or not splits["devel"]:
        raise DataError("need train and devel recordings with gold and features")
    splits = {s: tuple(ids) for s, ids in splits.items() if ids}
    return inputs, targets, splits, {"head": "regression"}, partial(_write_traces, ts_by_rec)


def _sent_training(args, features_dir: Path):
    """Feature frames and labels of every segment by split, in segment order; test needs no label."""
    if not args.segments or not args.labels:
        raise ParameterError("sent training needs --segments and --labels")
    segments = dataio.read_segments_csv(_resolve(args.segments))
    # discretize puts N segments in at most N classes; a larger class would size the head, so it is bad data
    labels = dataio.read_labels_csv(_resolve(args.labels), n_classes=max(len(segments), 5))

    feats: dict[str, dataio.FeatureSequence] = {}
    inputs: dict[str, np.ndarray] = {}
    width = None
    for seg in segments:
        if seg.recording_id not in feats:
            fpath = features_dir / f"{seg.recording_id}.csv"
            if not fpath.is_file():
                raise DataError(f"no feature file for recording {seg.recording_id!r}: {fpath}")
            feats[seg.recording_id] = dataio.read_feature_csv(
                fpath, seg.recording_id, features_dir.name, n_features=width
            )
            width = feats[seg.recording_id].n_features
        fseq = feats[seg.recording_id]
        mask = dataio.slice_by_span(fseq.timestamps_ms, seg.start_ms, seg.end_ms)
        x = fseq.matrix[mask]
        if x.shape[0] < 1:
            raise DataError(f"segment {seg.segment_id!r} covers no feature frames")
        inputs[seg.segment_id] = x

    splits: dict[str, list[str]] = {s: [] for s in dataio.SPLITS}
    for seg in segments:
        splits[seg.partition].append(seg.segment_id)
        if seg.segment_id not in labels and seg.partition != "test":
            raise DataError(f"no label for {seg.partition} segment {seg.segment_id!r}")
    if not splits["train"] or not splits["devel"]:
        raise DataError("need labeled train and devel segments")
    splits = {s: tuple(ids) for s, ids in splits.items() if ids}
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
    inputs, targets, splits, head, write_preds = read_items(args, _resolve(args.features))
    config = RegressorConfig(
        input_dim=inputs[splits["train"][0]].shape[1],
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
        f"hidden {config.hidden_dim}, {len(splits['train'])} train items"
    )
    model, history, outputs = fit(
        config, inputs, targets, splits, spec,
        progress=lambda e, l, m: _info(f"epoch {e}: loss {l:.4f} {metric} {m:.4f}"),
    )
    return _write_run(
        _resolve(args.out), model, history, outputs, write_preds,
        best_epoch=history.best_epoch, epochs_run=len(history.rows),
    )


# ---------------------------------------------------------------------------
# eval


def _read_pred_dir(pred_dir: Path, gold_dir: Path):
    preds = {}
    golds = {}
    files = sorted(pred_dir.glob("*.csv"))
    if not files:
        raise DataError(f"no prediction files under {pred_dir}")
    for path in files:
        rec = path.stem
        _, preds[rec] = dataio.read_prediction_csv(path)
        _, golds[rec] = dataio.read_gold_csv(gold_dir / f"{rec}.csv")
    return preds, golds


def cmd_eval(args) -> int:
    if args.pred_labels or args.gold_labels:
        if not (args.pred_labels and args.gold_labels):
            raise ParameterError("classification eval needs --pred-labels and --gold-labels")
        if args.classes < 2:
            raise ParameterError(f"--classes must be >= 2, got {args.classes}")
        pred_map = dataio.read_labels_csv(_resolve(args.pred_labels), n_classes=args.classes)
        gold_map = dataio.read_labels_csv(_resolve(args.gold_labels), n_classes=args.classes)
        shared = sorted(set(pred_map) & set(gold_map))
        if not shared:
            raise DataError("no shared segment ids between predictions and gold labels")
        preds = np.array([pred_map[s] for s in shared])
        golds = np.array([gold_map[s] for s in shared])
        score = macro_f1(preds, golds, n_classes=args.classes)
        _info(f"macro F1 over {len(shared)} segments")
        _emit("macro_f1", repr(round(score, 6)))
        return 0

    if not args.pred or not args.gold:
        raise ParameterError("regression eval needs --pred and --gold")
    preds, golds = _read_pred_dir(_resolve(args.pred), _resolve(args.gold))
    per_target = {args.name: partition_ccc(preds, golds)}
    if args.pred2 or args.gold2:
        if not (args.pred2 and args.gold2):
            raise ParameterError("second target needs both --pred2 and --gold2")
        preds2, golds2 = _read_pred_dir(_resolve(args.pred2), _resolve(args.gold2))
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


def _regression_streams(args, stream_dirs: dict[str, Path]):
    """Per-recording traces of every stream, over recordings all streams cover."""
    if not args.gold or not args.partitions:
        raise ParameterError("regression fusion needs --gold and --partitions")
    gold_dir = _resolve(args.gold)
    partition = dataio.read_partition_csv(_resolve(args.partitions))

    splits: dict[str, tuple[str, ...]] = {}
    for split in dataio.SPLITS:
        recs = [
            r for r in partition.recordings(split)
            if all((d / split / f"{r}.csv").is_file() for d in stream_dirs.values())
        ]
        if recs:
            splits[split] = tuple(recs)

    streams: dict[str, dict[str, np.ndarray]] = {}
    ts_by_rec: dict[str, np.ndarray] = {}
    for name, d in stream_dirs.items():
        preds = {}
        for split, recs in splits.items():
            for rec in recs:
                ts, preds[rec] = dataio.read_prediction_csv(d / split / f"{rec}.csv")
                ts_by_rec.setdefault(rec, ts)
        streams[name] = preds
    gold = {
        rec: dataio.read_gold_csv(gold_dir / f"{rec}.csv")[1]
        for split in ("train", "devel") for rec in splits.get(split, ())
    }
    return streams, gold, splits, partial(_write_traces, ts_by_rec)


def _sent_streams(args, stream_dirs: dict[str, Path]):
    """Per-segment logits of every stream, read from ``<split>_logits.csv``."""
    if not args.gold_labels:
        raise ParameterError("sent fusion needs --gold-labels")

    splits: dict[str, tuple[str, ...]] = {}
    streams: dict[str, dict[str, np.ndarray]] = {}
    for name, d in stream_dirs.items():
        per_item: dict[str, np.ndarray] = {}
        for split in dataio.SPLITS:
            path = d / f"{split}_logits.csv"
            if not path.is_file():
                continue
            rows = dataio.read_logits_csv(path)
            per_item.update(rows)
            ids = tuple(sorted(rows))
            if split in splits and splits[split] != ids:
                raise DataError(f"streams disagree on {split} segment ids")
            splits[split] = ids
        streams[name] = per_item
    # a gold class without a logit column in every stream is bad data
    width = min((len(v) for rows in streams.values() for v in rows.values()), default=None)
    gold = dataio.read_labels_csv(_resolve(args.gold_labels), n_classes=width)
    return streams, gold, splits, _write_labels


def cmd_fuse_late(args) -> int:
    stream_dirs = [_resolve(s) for s in args.streams]
    if len(stream_dirs) < 2:
        raise ParameterError("late fusion needs at least two --streams directories")
    spec = dataio.WindowSpec(args.window, args.hop or args.window) if args.window is not None else None
    task = "sent" if args.task == "sent" else "regression"
    # (streams, train and devel gold, items per split, prediction writer)
    read_streams = _sent_streams if task == "sent" else _regression_streams
    streams, gold, splits, write_preds = read_streams(
        args, dict(zip(_stream_names(stream_dirs), stream_dirs))
    )
    if "train" not in splits or "devel" not in splits:
        raise DataError("streams do not cover train and devel items")

    plan = FusionPlan(
        streams=streams, gold=gold, splits=splits, window_spec=spec,
        seed=args.seed, max_epochs=args.epochs, patience=args.patience,
        batch_size=args.batch,
    )
    _info(f"fusing {len(streams)} {task} streams over {sum(len(v) for v in splits.values())} items")
    result = fuse_predictions(plan, task=task)
    return _write_run(
        _resolve(args.out), result.model, result.history, result.predictions, write_preds,
        streams=",".join(result.stream_order),
    )


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)

    try:
        config_path = None
        for i, token in enumerate(argv):
            if token == "--config" and i + 1 < len(argv):
                config_path = argv[i + 1]
            elif token.startswith("--config="):
                config_path = token.split("=", 1)[1]
        if config_path is not None:
            command = next((t for t in argv if not t.startswith("-")), None)  # the top level takes no values
            _apply_config(_load_config_file(Path(_resolve(config_path))), subparsers, command)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.jobs < 1:
            raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
