"""File formats, label-grid alignment, windowing, partitions, and segments.

All CSV writers format floats with ``repr`` (shortest round-trip form) and
sort rows deterministically, so reruns under a fixed seed produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import AnnotationTrace, RaterSet
from .errors import DataError, ParameterError

__all__ = [
    "FeatureSequence",
    "WindowSpec",
    "Partition",
    "Segment",
    "align_to_labels",
    "window",
    "merge_segments",
    "read_annotation_csv",
    "write_annotation_csv",
    "read_rater_set",
    "read_feature_csv",
    "write_feature_csv",
    "read_gold_csv",
    "write_gold_csv",
    "read_prediction_csv",
    "write_prediction_csv",
    "read_partition_csv",
    "write_partition_csv",
    "read_segments_csv",
    "write_segments_csv",
    "read_labels_csv",
    "write_labels_csv",
    "read_logits_csv",
    "write_logits_csv",
    "write_warp_path_csv",
    "read_model_file",
    "slice_by_span",
]

SPLITS = ("train", "devel", "test")


def _fmt(x: float) -> str:
    return repr(float(x))


def _expand_header(pattern: str, width: int) -> str:
    """The header a pattern stands for at ``width`` columns.

    A pattern ending in ``x0,...`` names numbered columns, at least one:
    ``segment_id,l0,...`` at width 3 is ``segment_id,l0,l1``.
    """
    if not pattern.endswith(",..."):
        return pattern
    *fixed, first, _ = pattern.split(",")
    numbered = [f"{first[:-1]}{i}" for i in range(max(1, width - len(fixed)))]
    return ",".join(fixed + numbered)


def _read_table(path: Path | str, formats: Mapping[str, Callable]) -> tuple[str, Iterator]:
    """Header of a CSV plus an iterator over its parsed data rows.

    ``formats`` maps each accepted header pattern to the parser of its rows.
    Every reader goes through here, so each rejects the same inputs with a
    :class:`DataError` naming the file: a missing, empty or non-UTF-8 file,
    a header matching no pattern, a row whose width differs from the
    header's, and a row its parser fails on with ``ValueError`` or
    ``ParameterError``. Blank lines are skipped.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing file: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    lines = (ln for ln in text.splitlines() if ln.strip())
    header = next(lines, "").strip()
    if not header:
        raise DataError(f"{path}: empty file")
    width = header.count(",") + 1
    parse = next((f for h, f in formats.items() if _expand_header(h, width) == header), None)
    if parse is None:
        expected = " or ".join(repr(h) for h in formats)
        raise DataError(f"{path}: expected header {expected}, got {header!r}")

    def rows():
        for ln in lines:
            fields = ln.split(",")
            try:
                if len(fields) != width:
                    raise ValueError(f"{len(fields)} fields, header has {width}")
                row = parse(fields)
            except (ValueError, ParameterError) as exc:
                raise DataError(f"{path}: malformed row {ln!r}: {exc}") from exc
            yield row

    return header, rows()


def _int64(text: str) -> int:
    """``int(text)``, rejecting a value numpy's int64 cannot hold."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is beyond the int64 range")
    return value


def _check_finite(path: Path | str, values: np.ndarray) -> None:
    """A DataError naming the file and the first data row holding a NaN or an infinity, if any."""
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise DataError(f"{path}: non-finite value in data row {row + 1}")


def _write_lines(path: Path | str, lines: Iterable[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class FeatureSequence:
    """A feature matrix on a time grid.

    ``timestamps_ms`` holds frame times; when ``end_timestamps_ms`` is
    present the rows are word-level features valid over
    ``[timestamps_ms[i], end_timestamps_ms[i]]``.
    """

    recording_id: str
    feature_set: str
    matrix: np.ndarray  # (T, D) float64
    timestamps_ms: np.ndarray  # (T,) int64
    end_timestamps_ms: np.ndarray | None = None

    def __post_init__(self) -> None:
        mat = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
        ts = np.asarray(self.timestamps_ms, dtype=np.int64)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "timestamps_ms", ts)
        if mat.shape[0] != ts.size:
            raise ParameterError("feature matrix rows must match timestamps")
        if ts.size == 0:
            raise ParameterError("feature sequence must not be empty")
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ParameterError(
                f"timestamps of {self.recording_id!r}/{self.feature_set!r} must be strictly increasing"
            )
        if self.end_timestamps_ms is not None:
            ends = np.asarray(self.end_timestamps_ms, dtype=np.int64)
            object.__setattr__(self, "end_timestamps_ms", ends)
            if ends.size != ts.size:
                raise ParameterError("end timestamps must match start timestamps")
            if np.any(ends < ts):
                raise ParameterError("word end timestamps must be >= start timestamps")

    @property
    def n_features(self) -> int:
        return int(self.matrix.shape[1])


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window layout in samples."""

    window: int
    hop: int

    def __post_init__(self) -> None:
        if self.window < 1 or self.hop < 1:
            raise ParameterError("window and hop must be >= 1 sample")


@dataclass(frozen=True)
class Partition:
    """Recording-to-split assignment with disjoint splits."""

    assignment: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for rid, split in self.assignment.items():
            if split not in SPLITS:
                raise ParameterError(f"unknown split {split!r} for recording {rid!r}")

    def split_of(self, recording_id: str) -> str:
        if recording_id not in self.assignment:
            raise DataError(f"recording {recording_id!r} missing from the partition map")
        return self.assignment[recording_id]

    def recordings(self, split: str) -> tuple[str, ...]:
        if split not in SPLITS:
            raise ParameterError(f"unknown split {split!r}")
        return tuple(sorted(r for r, s in self.assignment.items() if s == split))


@dataclass(frozen=True)
class Segment:
    """A labelled time span of one recording; times in ms, half-open [start, end)."""

    segment_id: str
    recording_id: str
    start_ms: int
    end_ms: int
    partition: str

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ParameterError(f"segment {self.segment_id!r}: end must be after start")
        if self.start_ms < 0:
            raise ParameterError(f"segment {self.segment_id!r}: negative start")


# ---------------------------------------------------------------------------
# label-grid alignment and windowing


def uniform_step_ms(timestamps_ms: np.ndarray) -> float:
    """Median step of a uniform, strictly increasing millisecond grid.

    Every step must lie within 1 ms of the median, since grids of rounded
    milliseconds wobble by 1 ms (333/334 ms at 3 Hz).
    """
    ts = np.asarray(timestamps_ms, dtype=np.int64)
    if ts.ndim != 1 or ts.size < 2:
        raise ParameterError("a timestamp grid needs at least 2 timestamps")
    diffs = np.diff(ts)
    step = float(np.median(diffs))
    if np.any(diffs <= 0):
        raise ParameterError("timestamps must be strictly increasing")
    if np.any(np.abs(diffs - step) > 1):
        raise ParameterError("timestamps must form a uniform grid")
    return step


def align_to_labels(features: FeatureSequence, label_timestamps_ms) -> np.ndarray:
    """Project a feature sequence onto a uniform label grid.

    Frame features (no end timestamps) are matched by nearest timestamp; a
    label step with no feature within half a grid step gets a zero row. Word
    features are repeated at every label step inside ``[start, end]`` and are
    zero outside any word.
    """
    label_ts = np.asarray(label_timestamps_ms, dtype=np.int64)
    step = int(round(uniform_step_ms(label_ts)))
    out = np.zeros((label_ts.size, features.n_features))
    if features.end_timestamps_ms is None:
        ft = features.timestamps_ms
        idx = np.searchsorted(ft, label_ts)
        for row, t in enumerate(label_ts):
            best, best_dist = -1, None
            for j in (idx[row] - 1, idx[row]):
                if 0 <= j < ft.size:
                    d = abs(int(ft[j]) - int(t))
                    if best_dist is None or d < best_dist:
                        best, best_dist = j, d
            if best >= 0 and best_dist * 2 <= step:
                out[row] = features.matrix[best]
    else:
        starts = features.timestamps_ms
        ends = features.end_timestamps_ms
        for row, t in enumerate(label_ts):
            hits = np.nonzero((starts <= t) & (t <= ends))[0]
            if hits.size:
                out[row] = features.matrix[hits[0]]
    return out


def window(values: np.ndarray, spec: WindowSpec) -> list[tuple[int, np.ndarray]]:
    """Cut a sequence into overlapping windows.

    Window starts are 0, hop, 2*hop, ... while the start is inside the
    sequence; the final window is truncated at the end, so concatenating
    ``[start : start + len)`` spans loses no sample. A sequence no longer
    than ``hop`` yields a single window.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n < 1:
        raise ParameterError("cannot window an empty sequence")
    return [(s, values[s : min(s + spec.window, n)]) for s in range(0, n, spec.hop)]


def merge_segments(
    segments: Sequence[Segment],
    max_gap_ms: int = 2000,
    same_group: Callable[[Segment, Segment], bool] | None = None,
) -> list[Segment]:
    """Merge segments of the same group separated by less than ``max_gap_ms``.

    ``same_group`` defaults to matching recording and partition. Segments are
    processed in start order per recording; a merged segment keeps the first
    segment's id. Segments of different groups never merge, whatever the gap.
    """
    if same_group is None:
        same_group = lambda a, b: (a.recording_id, a.partition) == (b.recording_id, b.partition)
    ordered = sorted(segments, key=lambda s: (s.recording_id, s.start_ms, s.end_ms))
    out: list[Segment] = []
    for seg in ordered:
        if out:
            prev = out[-1]
            gap = seg.start_ms - prev.end_ms
            if same_group(prev, seg) and gap < max_gap_ms:
                out[-1] = Segment(
                    segment_id=prev.segment_id,
                    recording_id=prev.recording_id,
                    start_ms=prev.start_ms,
                    end_ms=max(prev.end_ms, seg.end_ms),
                    partition=prev.partition,
                )
                continue
        out.append(seg)
    return out


def slice_by_span(timestamps_ms: np.ndarray, start_ms: int, end_ms: int) -> np.ndarray:
    """Boolean mask of grid samples inside the half-open span [start, end)."""
    ts = np.asarray(timestamps_ms)
    return (ts >= start_ms) & (ts < end_ms)


# ---------------------------------------------------------------------------
# two-column signal CSVs


_TIMESTAMP_VALUE = np.dtype([("ts", np.int64), ("value", np.float64)])


def _read_two_column(path: Path | str, expected_header: str) -> tuple[np.ndarray, np.ndarray]:
    # parsed straight into one array: no per-row Python lists for 1 kHz signals
    _, rows = _read_table(path, {expected_header: lambda f: (int(f[0]), float(f[1]))})
    try:
        table = np.fromiter(rows, dtype=_TIMESTAMP_VALUE)
    except OverflowError as exc:  # caught here, not per row: 1 kHz signals
        raise DataError(f"{path}: a timestamp is beyond the int64 range") from exc
    if not table.size:
        raise DataError(f"{path}: no data rows")
    _check_finite(path, table["value"])
    return np.ascontiguousarray(table["ts"]), np.ascontiguousarray(table["value"])


def _write_two_column(path: Path | str, header: str, ts: np.ndarray, vals: np.ndarray) -> None:
    lines = [header]
    lines += [f"{int(t)},{_fmt(v)}" for t, v in zip(ts, vals)]
    _write_lines(path, lines)


def _read_grid(path: Path | str) -> tuple[np.ndarray, np.ndarray, float]:
    """Timestamps, values and step in ms of a ``timestamp_ms,value`` CSV.

    The samples, at least 2, must lie on a uniform grid (see :func:`uniform_step_ms`).
    """
    ts, vals = _read_two_column(path, "timestamp_ms,value")
    try:
        return ts, vals, uniform_step_ms(ts)
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_annotation_csv(path: Path | str, rater_id: str, kind: str) -> AnnotationTrace:
    """Load one rater's trace from a ``timestamp_ms,value`` CSV."""
    _, vals, step = _read_grid(path)
    try:
        return AnnotationTrace(rater_id=rater_id, sample_rate_hz=1000.0 / step, values=vals, kind=kind)
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_annotation_csv(path: Path | str, trace: AnnotationTrace) -> None:
    _write_two_column(path, "timestamp_ms,value", trace.timestamps_ms(), trace.values)


def read_rater_set(annotations_dir: Path | str, recording_id: str, kind: str) -> RaterSet:
    """Load ``<annotations_dir>/<recording_id>/<kind>/<rater_id>.csv`` into a RaterSet."""
    folder = Path(annotations_dir) / recording_id / kind
    if not folder.is_dir():
        raise DataError(f"no {kind!r} annotations for recording {recording_id!r} under {annotations_dir}")
    files = sorted(folder.glob("*.csv"))
    if not files:
        raise DataError(f"no annotation files in {folder}")
    traces = tuple(read_annotation_csv(f, rater_id=f.stem, kind=kind) for f in files)
    try:
        return RaterSet(recording_id=recording_id, traces=traces)
    except ParameterError as exc:
        raise DataError(f"recording {recording_id!r}: {exc}") from exc


def list_recordings(annotations_dir: Path | str, kind: str) -> list[str]:
    """Recording ids under an annotation root that have the given kind."""
    root = Path(annotations_dir)
    if not root.is_dir():
        raise DataError(f"missing annotation directory: {root}")
    return sorted(p.parent.name for p in root.glob(f"*/{kind}") if p.is_dir())


# ---------------------------------------------------------------------------
# feature CSVs


def read_feature_csv(
    path: Path | str, recording_id: str, feature_set: str, n_features: int | None = None
) -> FeatureSequence:
    """Load a feature CSV: ``timestamp_ms,f0,...`` or ``start_ms,end_ms,f0,...`` for words.

    With ``n_features`` (the width of a set's other files) a file of another width is bad data.
    """
    header, parsed = _read_table(
        path,
        {
            "timestamp_ms,f0,...": lambda f: (_int64(f[0]), None, [float(v) for v in f[1:]]),
            "start_ms,end_ms,f0,...": lambda f: (_int64(f[0]), _int64(f[1]), [float(v) for v in f[2:]]),
        },
    )
    parsed = list(parsed)
    if not parsed:
        raise DataError(f"{path}: no data rows")
    ts, ends, rows = zip(*parsed)
    if n_features is not None and len(rows[0]) != n_features:
        raise DataError(f"{path}: {len(rows[0])} feature columns, expected {n_features}")
    matrix = np.asarray(rows, dtype=np.float64)
    _check_finite(path, matrix)
    try:
        return FeatureSequence(
            recording_id=recording_id,
            feature_set=feature_set,
            matrix=matrix,
            timestamps_ms=np.asarray(ts, dtype=np.int64),
            end_timestamps_ms=np.asarray(ends, dtype=np.int64) if header.startswith("start_ms,") else None,
        )
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_feature_csv(path: Path | str, features: FeatureSequence) -> None:
    d = features.n_features
    cols = ",".join(f"f{i}" for i in range(d))
    if features.end_timestamps_ms is None:
        lines = [f"timestamp_ms,{cols}"]
        for t, row in zip(features.timestamps_ms, features.matrix):
            lines.append(f"{int(t)}," + ",".join(_fmt(v) for v in row))
    else:
        lines = [f"start_ms,end_ms,{cols}"]
        for t, e, row in zip(features.timestamps_ms, features.end_timestamps_ms, features.matrix):
            lines.append(f"{int(t)},{int(e)}," + ",".join(_fmt(v) for v in row))
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# gold standards, predictions, partitions, segments, labels


def write_gold_csv(path: Path | str, timestamps_ms: np.ndarray, values: np.ndarray, metadata: Mapping | None = None) -> None:
    """Write a gold CSV and, with metadata given, a ``.json`` sidecar next to it."""
    _write_two_column(path, "timestamp_ms,value", np.asarray(timestamps_ms), np.asarray(values))
    if metadata is not None:
        side = Path(path).with_suffix(".json")
        side.write_text(json.dumps(dict(metadata), indent=2, sort_keys=True) + "\n")


def read_gold_csv(path: Path | str) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and values of a gold CSV on a uniform grid.

    The ``.json`` sidecar :func:`write_gold_csv` leaves is never read here.
    """
    ts, vals, _ = _read_grid(path)
    return ts, vals


def write_prediction_csv(path: Path | str, timestamps_ms: np.ndarray, preds: np.ndarray) -> None:
    _write_two_column(path, "timestamp_ms,pred", np.asarray(timestamps_ms), np.asarray(preds))


def read_prediction_csv(path: Path | str) -> tuple[np.ndarray, np.ndarray]:
    return _read_two_column(path, "timestamp_ms,pred")


def write_partition_csv(path: Path | str, partition: Partition) -> None:
    lines = ["recording_id,partition"]
    lines += [f"{rid},{split}" for rid, split in sorted(partition.assignment.items())]
    _write_lines(path, lines)


def read_partition_csv(path: Path | str) -> Partition:
    """Load a partition map; a recording assigned to two splits is rejected."""
    _, rows = _read_table(path, {"recording_id,partition": lambda f: (f[0].strip(), f[1].strip())})
    assignment: dict[str, str] = {}
    for rid, split in rows:
        if split not in SPLITS:
            raise DataError(f"{path}: unknown split {split!r} for recording {rid!r}")
        if rid in assignment and assignment[rid] != split:
            raise DataError(f"{path}: recording {rid!r} appears in two splits")
        assignment[rid] = split
    return Partition(assignment=assignment)


def write_segments_csv(path: Path | str, segments: Sequence[Segment]) -> None:
    lines = ["segment_id,recording_id,start_ms,end_ms,partition"]
    for s in segments:
        lines.append(f"{s.segment_id},{s.recording_id},{s.start_ms},{s.end_ms},{s.partition}")
    _write_lines(path, lines)


def read_segments_csv(path: Path | str) -> list[Segment]:
    _, rows = _read_table(
        path,
        {
            "segment_id,recording_id,start_ms,end_ms,partition":
                lambda f: Segment(f[0], f[1], _int64(f[2]), _int64(f[3]), f[4]),
        },
    )
    return list(rows)


def write_labels_csv(path: Path | str, labels: Mapping[str, int]) -> None:
    lines = ["segment_id,class"]
    lines += [f"{sid},{int(c)}" for sid, c in sorted(labels.items())]
    _write_lines(path, lines)


def read_labels_csv(path: Path | str, n_classes: int | None = None) -> dict[str, int]:
    """``segment_id,class`` rows; with ``n_classes`` a class outside [0, n_classes) is bad data."""
    _, rows = _read_table(path, {"segment_id,class": lambda f: (f[0], _int64(f[1]))})
    labels = dict(rows)
    for seg_id, label in labels.items():
        if n_classes is not None and not 0 <= label < n_classes:
            raise DataError(f"{path}: segment {seg_id!r} has class {label}, outside [0, {n_classes - 1}]")
    return labels


def write_logits_csv(path: Path | str, logits: Mapping[str, np.ndarray]) -> None:
    """Per-segment class logits as ``segment_id,l0,l1,...`` rows sorted by id."""
    if not logits:
        raise DataError("no logits to write")
    width = len(next(iter(logits.values())))
    lines = ["segment_id," + ",".join(f"l{i}" for i in range(width))]
    lines += [seg_id + "," + ",".join(_fmt(v) for v in logits[seg_id]) for seg_id in sorted(logits)]
    _write_lines(path, lines)


def read_logits_csv(path: Path | str) -> dict[str, np.ndarray]:
    _, rows = _read_table(path, {"segment_id,l0,...": lambda f: (f[0], np.array([float(v) for v in f[1:]]))})
    rows = list(rows)
    _check_finite(path, np.array([logits for _, logits in rows]))
    return dict(rows)


def write_warp_path_csv(path: Path | str, warp_path) -> None:
    """Debug dump of a warp path as ``src_idx,ref_idx`` rows."""
    lines = ["src_idx,ref_idx"]
    lines += [f"{int(s)},{int(r)}" for s, r in warp_path.pairs]
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# model files: one JSON object with a ``kind`` and a ``format_version``


def read_model_file(path: Path | str, kind: str, build: Callable[[dict], object]):
    """``build(payload)`` of a version-1 JSON model file of ``kind``.

    Every fault is a ParameterError naming the file: missing or unreadable,
    not JSON, another kind or version, or a ``KeyError``, ``TypeError`` or
    ``ValueError`` from ``build`` (a missing, unknown or malformed entry).
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ParameterError(f"{path}: cannot read a JSON model file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("kind") != kind or payload.get("format_version") != 1:
        raise ParameterError(f"{path}: not a version-1 {kind} file")
    try:
        return build(payload)
    except KeyError as exc:
        raise ParameterError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: {exc}") from None
