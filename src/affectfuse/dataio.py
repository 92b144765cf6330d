"""File formats, label-grid alignment, windowing, partitions, and segments.

Every file the package writes goes through :func:`write_table` (CSVs) or one
sorted-key JSON writer (model files, gold sidecars), and rows are sorted
deterministically, so reruns under a fixed seed produce byte-identical files.
Every CSV it reads goes through :func:`_read_table`, one ``np.loadtxt`` parse.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import AnnotationTrace, RaterSet, grid_timestamps_ms
from .errors import DataError, ParameterError

__all__ = [
    "FeatureSequence",
    "WindowSpec",
    "Partition",
    "Segment",
    "uniform_step_ms",
    "label_rows",
    "align_to_labels",
    "window",
    "read_annotation_csv",
    "write_annotation_csv",
    "read_rater_set",
    "read_physio_csv",
    "list_recordings",
    "read_feature_csv",
    "write_feature_csv",
    "read_gold_csv",
    "write_gold_csv",
    "read_prediction_csv",
    "write_prediction_csv",
    "check_same_grid",
    "read_partition_csv",
    "write_partition_csv",
    "read_segments_csv",
    "write_segments_csv",
    "read_labels_csv",
    "write_labels_csv",
    "read_logits_csv",
    "write_logits_csv",
    "write_warp_path_csv",
    "write_table",
    "read_model_file",
    "write_model_file",
]

SPLITS = ("train", "devel", "test")
# numbered header patterns, read and written through _expand_header
_FRAME_HEADER = "timestamp_ms,f0,..."
_WORD_HEADER = "start_ms,end_ms,f0,..."
_LOGITS_HEADER = "segment_id,l0,..."
# rows write_table formats and writes at once
WRITE_BLOCK = 1 << 14


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


def _read_table(path: Path | str, formats: Mapping[str, Sequence[type]]) -> np.ndarray:
    """The data rows of a CSV as one structured array, parsed by ``np.loadtxt``.

    ``formats`` maps each accepted header pattern to the dtypes of its
    columns. Each column becomes a field named as in the header; the numbered
    columns of a ``x0,...`` pattern become one sub-array field ``x``. The open
    file goes to ``loadtxt``, so the text is decoded a line at a time and never
    held whole. Every reader goes through here, so each rejects the same inputs
    with a :class:`DataError` naming the file: a missing, empty or non-UTF-8
    file, a header matching no pattern, a row whose width differs from the
    header's, a field its dtype cannot parse (so a whitespace-only line too),
    no data rows, and a NaN or infinity in a float column. Blank lines before
    the header and empty lines after it are skipped.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing file: {path}")
    try:
        with path.open(encoding="utf-8") as f:
            header = next(filter(None, map(str.strip, f)), "")
            if not header:
                raise DataError(f"{path}: empty file")
            width = header.count(",") + 1
            pattern = next((h for h in formats if _expand_header(h, width) == header), None)
            if pattern is None:
                expected = " or ".join(repr(h) for h in formats)
                raise DataError(f"{path}: expected header {expected}, got {header!r}")
            columns = list(zip(pattern.removesuffix(",...").split(","), formats[pattern]))
            if pattern.endswith(",..."):
                name, dtype = columns[-1]
                columns[-1] = (name[:-1], dtype, (width - len(columns) + 1,))
            with warnings.catch_warnings():  # an empty body is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(f, dtype=columns, delimiter=",", comments=None, ndmin=1)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: malformed data: {exc}") from None
    if not table.size:
        raise DataError(f"{path}: no data rows")
    for name in table.dtype.names:
        if table.dtype[name].base == np.float64:
            _check_finite(path, table[name])
    return table


def _check_finite(path: Path | str, values: np.ndarray) -> None:
    """A DataError naming the file and the first data row holding a NaN or an infinity, if any."""
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise DataError(f"{path}: non-finite value in data row {row + 1}")


def _check_unique(path: Path | str, ids: Sequence[str]) -> None:
    """A DataError naming the file, the first repeated segment id and both data rows holding it, if any."""
    first_row: dict[str, int] = {}
    for row, seg_id in enumerate(ids, start=1):
        if first_row.setdefault(seg_id, row) != row:
            raise DataError(f"{path}: segment {seg_id!r} in data rows {first_row[seg_id]} and {row}")


def _write_text(path: Path | str, chunks: Iterable[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.writelines(chunks)


def _write_json(path: Path | str, obj: Mapping, indent: int | None = None) -> None:
    _write_text(path, [json.dumps(obj, indent=indent, sort_keys=True) + "\n"])


def write_table(path: Path | str, header: str, *columns) -> None:
    """Write ``header`` (a pattern is numbered, see :func:`_expand_header`) and a row per entry of ``columns``.

    Ints are written as digits, floats as the shortest round-trip ``repr`` and
    strings as given; a 2-d column fills one field per column. Values keep
    their own type, so each format's writer coerces its columns first. Rows
    are formatted ``WRITE_BLOCK`` at a time, so the text is never held whole.
    """
    cols = [np.asarray(c) for c in columns]
    width = sum(c.shape[1] if c.ndim == 2 else 1 for c in cols)

    def blocks():
        yield _expand_header(header, width) + "\n"
        for r0 in range(0, min(map(len, cols), default=0), WRITE_BLOCK):
            rows = [c[r0 : r0 + WRITE_BLOCK].tolist() for c in cols]
            texts = [[",".join(map(str, r)) for r in t] if c.ndim == 2 else map(str, t) for c, t in zip(cols, rows)]
            yield "\n".join(map(",".join, zip(*texts))) + "\n"

    _write_text(path, blocks())


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
    """A labelled time span of one recording; times in ms, half-open [start, end).

    :meth:`rows` decides which rows of a time series the segment takes: a gold
    sample or feature frame at ``t`` when ``start <= t < end``, and a word
    ``[s, e]`` when it overlaps the span, ``s < end`` and ``e >= start``.
    """

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
        if self.partition not in SPLITS:
            raise ParameterError(f"segment {self.segment_id!r}: unknown split {self.partition!r}")

    def rows(self, starts_ms, ends_ms=None) -> np.ndarray:
        """Indices of the rows the segment takes; without ``ends_ms`` a row at ``t`` is the word [t, t]."""
        starts = np.asarray(starts_ms)
        ends = starts if ends_ms is None else np.asarray(ends_ms)
        return np.flatnonzero((starts < self.end_ms) & (ends >= self.start_ms))


# ---------------------------------------------------------------------------
# label-grid alignment and windowing


def uniform_step_ms(timestamps_ms: np.ndarray) -> float:
    """Step of a uniform, strictly increasing millisecond grid: its span over its steps.

    Every step must lie within 1 ms of that step, since grids of rounded
    milliseconds wobble by 1 ms (333/334 ms at 3 Hz); the span over the steps
    regenerates every row of such a grid to within 1 ms.
    """
    ts = np.asarray(timestamps_ms, dtype=np.int64)
    if ts.ndim != 1 or ts.size < 2:
        raise ParameterError("a timestamp grid needs at least 2 timestamps")
    diffs = np.diff(ts)
    step = float(ts[-1] - ts[0]) / (ts.size - 1)
    if np.any(diffs <= 0):
        raise ParameterError("timestamps must be strictly increasing")
    if np.any(diffs < step - 1) or np.any(diffs > step + 1):
        raise ParameterError("timestamps must form a uniform grid")
    return step


def label_rows(features: FeatureSequence, label_timestamps_ms) -> np.ndarray:
    """The feature row each step of a uniform label grid takes, or -1 where none reaches it.

    A frame (no end timestamps) reaches a step it is nearest to, the earlier
    frame on a tie, when twice its distance is at most the grid step. A word
    reaches every step inside ``[start, end]``, the first word where they overlap.
    """
    label_ts = np.asarray(label_timestamps_ms, dtype=np.int64)
    step = int(round(uniform_step_ms(label_ts)))
    if features.end_timestamps_ms is None:
        ft = features.timestamps_ms
        idx = np.searchsorted(ft, label_ts)  # the two candidates are the frames before and at idx
        before, after = np.maximum(idx - 1, 0), np.minimum(idx, ft.size - 1)
        d_before, d_after = np.abs(ft[before] - label_ts), np.abs(ft[after] - label_ts)
        rows = np.where(d_after < d_before, after, before)  # on equal distance the earlier frame wins
        hit = np.minimum(d_before, d_after) <= step // 2  # 2 * dist <= step, for integers
    else:  # the first word ending at or after a step covers it if it starts at or before it
        rows = np.searchsorted(np.maximum.accumulate(features.end_timestamps_ms), label_ts)
        hit = rows < np.searchsorted(features.timestamps_ms, label_ts, side="right")
    return np.where(hit, rows, -1)


def align_to_labels(features: FeatureSequence, label_timestamps_ms) -> np.ndarray:
    """The rows of :func:`label_rows`, one per label step; a step nothing reaches gets a zero row."""
    rows = label_rows(features, label_timestamps_ms)
    out = np.zeros((rows.size, features.n_features))
    hit = rows >= 0
    out[hit] = features.matrix[rows[hit]]
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


# ---------------------------------------------------------------------------
# two-column signal CSVs


def _read_grid(path: Path | str, column: str = "value", from_zero: bool = False) -> tuple[np.ndarray, np.ndarray, float]:
    """Timestamps, values and step in ms of a ``timestamp_ms,<column>`` CSV; the two columns are
    strided fields of the table read, not copies.

    The samples, at least 2, must lie on a uniform grid (see :func:`uniform_step_ms`), which
    with ``from_zero`` starts at 0 ms.
    """
    table = _read_table(path, {f"timestamp_ms,{column}": (np.int64, np.float64)})
    ts = table["timestamp_ms"]
    try:
        step = uniform_step_ms(ts)
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if from_zero and ts[0] != 0:
        raise DataError(f"{path}: the time grid starts at {ts[0]} ms, not 0")
    return ts, table[column], step


def read_annotation_csv(path: Path | str, rater_id: str, kind: str) -> tuple[np.ndarray, AnnotationTrace]:
    """Timestamps and trace of one rater's ``timestamp_ms,value`` CSV whose grid starts at 0 ms; ``_read_grid``
    rejects every fault of the file, so only a bad ``kind`` is left for the trace to reject."""
    ts, vals, step = _read_grid(path, from_zero=True)  # AnnotationTrace copies the values field
    return np.ascontiguousarray(ts), AnnotationTrace(rater_id, 1000.0 / step, vals, kind)


def write_annotation_csv(path: Path | str, trace: AnnotationTrace) -> None:
    """Write a trace on the grid of its ``sample_rate_hz`` starting at 0 ms."""
    write_table(path, "timestamp_ms,value", grid_timestamps_ms(len(trace), trace.sample_rate_hz), trace.values)


def read_rater_set(annotations_dir: Path | str, recording_id: str, kind: str) -> RaterSet:
    """Load ``<annotations_dir>/<recording_id>/<kind>/<rater_id>.csv`` into a RaterSet.

    Every file must hold the first file's timestamps (see :func:`check_same_grid`);
    the set keeps that one grid.
    """
    folder = Path(annotations_dir) / recording_id / kind
    if not folder.is_dir():
        raise DataError(f"no {kind!r} annotations for recording {recording_id!r} under {annotations_dir}")
    files = sorted(folder.glob("*.csv"))
    if not files:
        raise DataError(f"no annotation files in {folder}")
    read = [read_annotation_csv(f, rater_id=f.stem, kind=kind) for f in files]
    grid = read[0][0]
    for f, (ts, _) in zip(files[1:], read[1:]):
        check_same_grid(f, ts, files[0], grid)
    return RaterSet(recording_id, [f.stem for f in files], [trace.values for _, trace in read], kind, grid)


def read_physio_csv(path: Path | str, timestamps_ms: np.ndarray) -> np.ndarray:
    """A physiological ``timestamp_ms,value`` CSV, whose grid starts at 0 ms, read at ``timestamps_ms``: linear
    interpolation between its samples, holding its last value past its end. Interpolating over only the rows around
    a timestamp gives the values the whole file would, without a float copy of its timestamp column."""
    ts, vals, _ = _read_grid(path, from_zero=True)
    at = np.asarray(timestamps_ms, dtype=np.int64)
    after = np.searchsorted(ts, at, side="right")
    rows = np.unique(np.clip(np.concatenate([after - 1, after]), 0, ts.size - 1))
    return np.interp(at, ts[rows], vals[rows])


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
    table = _read_table(path, {_FRAME_HEADER: (np.int64, np.float64), _WORD_HEADER: (np.int64, np.int64, np.float64)})
    matrix = np.ascontiguousarray(table["f"])
    if n_features is not None and matrix.shape[1] != n_features:
        raise DataError(f"{path}: {matrix.shape[1]} feature columns, expected {n_features}")
    words = "start_ms" in table.dtype.names
    try:
        return FeatureSequence(
            recording_id=recording_id,
            feature_set=feature_set,
            matrix=matrix,
            timestamps_ms=np.ascontiguousarray(table["start_ms" if words else "timestamp_ms"]),
            end_timestamps_ms=np.ascontiguousarray(table["end_ms"]) if words else None,
        )
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_feature_csv(path: Path | str, features: FeatureSequence) -> None:
    # FeatureSequence holds int64 timestamps and a float64 matrix already
    if features.end_timestamps_ms is None:
        write_table(path, _FRAME_HEADER, features.timestamps_ms, features.matrix)
    else:
        write_table(path, _WORD_HEADER, features.timestamps_ms, features.end_timestamps_ms, features.matrix)


# ---------------------------------------------------------------------------
# gold standards, predictions, partitions, segments, labels


def write_gold_csv(path: Path | str, timestamps_ms: np.ndarray, values: np.ndarray, metadata: Mapping | None = None) -> None:
    """Write a gold CSV and, with metadata given, a ``.json`` sidecar next to it."""
    write_table(path, "timestamp_ms,value", np.asarray(timestamps_ms, np.int64), np.asarray(values, np.float64))
    if metadata is not None:
        _write_json(Path(path).with_suffix(".json"), dict(metadata), indent=2)


def read_gold_csv(path: Path | str) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and values of a gold CSV on a uniform grid.

    The ``.json`` sidecar :func:`write_gold_csv` leaves is never read here.
    """
    ts, vals, _ = _read_grid(path)
    return np.ascontiguousarray(ts), np.ascontiguousarray(vals)


def write_prediction_csv(path: Path | str, timestamps_ms: np.ndarray, preds: np.ndarray) -> None:
    write_table(path, "timestamp_ms,pred", np.asarray(timestamps_ms, np.int64), np.asarray(preds, np.float64))


def read_prediction_csv(path: Path | str) -> tuple[np.ndarray, np.ndarray]:
    ts, preds, _ = _read_grid(path, "pred")
    return np.ascontiguousarray(ts), np.ascontiguousarray(preds)


def check_same_grid(path: Path | str, timestamps_ms: np.ndarray, grid_path: Path | str, grid_ms: np.ndarray) -> None:
    """Unless ``timestamps_ms``, read from ``path``, equal ``grid_ms``, read from ``grid_path`` (two series paired
    frame by frame), a DataError naming both files and the first data row whose timestamps differ; a shorter
    file differs at its first missing row. Nothing is interpolated or resampled."""
    n = min(timestamps_ms.size, grid_ms.size)
    differ = np.flatnonzero(timestamps_ms[:n] != grid_ms[:n])
    row = int(differ[0]) if differ.size else n
    if row < max(timestamps_ms.size, grid_ms.size):
        at = [f"at {ts[row]} ms" if row < ts.size else "missing" for ts in (timestamps_ms, grid_ms)]
        raise DataError(f"{path}: data row {row + 1} is {at[0]}, but in {grid_path} it is {at[1]}")


def write_partition_csv(path: Path | str, partition: Partition) -> None:
    assignment = sorted(partition.assignment.items())
    write_table(path, "recording_id,partition", [r for r, _ in assignment], [s for _, s in assignment])


def read_partition_csv(path: Path | str) -> Partition:
    """Load a partition map; a recording assigned to two splits is rejected."""
    table = _read_table(path, {"recording_id,partition": (object, object)})
    assignment: dict[str, str] = {}
    for rid, split in ((r.strip(), s.strip()) for r, s in table.tolist()):
        if split not in SPLITS:
            raise DataError(f"{path}: unknown split {split!r} for recording {rid!r}")
        if rid in assignment and assignment[rid] != split:
            raise DataError(f"{path}: recording {rid!r} appears in two splits")
        assignment[rid] = split
    return Partition(assignment=assignment)


def write_segments_csv(path: Path | str, segments: Sequence[Segment]) -> None:
    ids, recs, starts, ends, splits = ([getattr(s, f.name) for s in segments] for f in fields(Segment))
    write_table(path, "segment_id,recording_id,start_ms,end_ms,partition", ids, recs,
                np.asarray(starts, np.int64), np.asarray(ends, np.int64), splits)


def read_segments_csv(path: Path | str) -> list[Segment]:
    table = _read_table(
        path, {"segment_id,recording_id,start_ms,end_ms,partition": (object, object, np.int64, np.int64, object)}
    )
    _check_unique(path, table["segment_id"].tolist())
    try:
        return [Segment(*row) for row in table.tolist()]
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_labels_csv(path: Path | str, labels: Mapping[str, int]) -> None:
    ids = sorted(labels)
    write_table(path, "segment_id,class", ids, np.asarray([labels[i] for i in ids], np.int64))


def read_labels_csv(path: Path | str, n_classes: int | None = None) -> dict[str, int]:
    """``segment_id,class`` rows, one per id; with ``n_classes`` a class outside [0, n_classes) is bad data."""
    table = _read_table(path, {"segment_id,class": (object, np.int64)})
    _check_unique(path, table["segment_id"].tolist())
    labels = dict(table.tolist())
    for seg_id, label in labels.items():
        if n_classes is not None and not 0 <= label < n_classes:
            raise DataError(f"{path}: segment {seg_id!r} has class {label}, outside [0, {n_classes - 1}]")
    return labels


def write_logits_csv(path: Path | str, logits: Mapping[str, np.ndarray]) -> None:
    """Per-segment class logits as ``segment_id,l0,l1,...`` rows sorted by id."""
    if not logits:
        raise DataError("no logits to write")
    ids = sorted(logits)
    write_table(path, _LOGITS_HEADER, ids, np.asarray([logits[i] for i in ids], np.float64))


def read_logits_csv(path: Path | str) -> dict[str, np.ndarray]:
    table = _read_table(path, {_LOGITS_HEADER: (object, np.float64)})
    _check_unique(path, table["segment_id"].tolist())
    return dict(zip(table["segment_id"].tolist(), np.ascontiguousarray(table["l"])))


def write_warp_path_csv(path: Path | str, warp_path) -> None:
    """Debug dump of a warp path as ``src_idx,ref_idx`` rows."""
    write_table(path, "src_idx,ref_idx", np.asarray(warp_path.pairs, np.int64))


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


def write_model_file(path: Path | str, kind: str, payload: Mapping) -> None:
    """Write ``payload`` on one line, which ``json`` encodes in C, as a version-1 JSON model file of ``kind``."""
    _write_json(path, {**payload, "format_version": 1, "kind": kind})
