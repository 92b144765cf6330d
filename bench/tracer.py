"""Span tracer that wraps affectfuse's public functions from outside the package.

``install()`` replaces every public function of the traced modules, plus a few
named methods, with a wrapper that records a span around each call. A span's
duration is charged to its name; its self time is the duration minus the time
covered by its child spans. Every module attribute that refers to a wrapped
function is rebound, so calls made through ``from .x import f`` in another
module are traced too. Nothing under ``src/`` is edited: the wrappers live in
the worker process only.

Besides times, a few wrappers record work counts measured where the work
happens: DTW band cells, alignment iterations, LSTM timesteps, training
epochs, bytes read and written, and the allocation peak of
``validate_clusters``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("align", "fuse", "core", "seqmodel", "latefusion", "discretize", "dataio", "synth")
# Functions outside the modules' ``__all__`` that the benchmark names.
EXTRA_FUNCTIONS = {"fuse": ("prepare_physio",)}
# (module, class, method, span name)
METHODS = (
    ("seqmodel", "SequenceModel", "loss_and_grads", "seqmodel.loss_and_grads"),
    ("seqmodel", "SequenceModel", "predict", "seqmodel.predict"),
    ("seqmodel", "Adam", "step", "seqmodel.Adam.step"),
)
# dataio readers and writers are also summed per direction, counting only the
# outermost call so that read_rater_set -> read_annotation_csv is one read.
GROUPS = {"dataio.read_": "dataio.read", "dataio.write_": "dataio.write"}


def _band_cells(n: int, m: int, band) -> int:
    if band is None:
        return n * m
    rows = np.arange(1, n + 1)
    lo = np.maximum(1, rows - int(band))
    hi = np.minimum(m, rows + int(band))
    return int(np.clip(hi - lo + 1, 0, None).sum())


class Tracer:
    """In-memory span aggregates: per name calls, total, self time and counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._child_seconds: list[float] = []  # one entry per open span
        self._open_groups: dict[str, int] = defaultdict(int)
        self.patched_sites = 0

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, group: str | None, func, args, kwargs):
        outermost = group is not None and self._open_groups[group] == 0
        if group is not None:
            self._open_groups[group] += 1
        self._child_seconds.append(0.0)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            children = self._child_seconds.pop()
            if group is not None:
                self._open_groups[group] -= 1
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - children
            if outermost:
                self.total[group] += dur
            if self._child_seconds:
                self._child_seconds[-1] += dur
        return result

    def count(self, key: str, amount: float) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
            "peaks": dict(self.peaks),
            "patched_sites": self.patched_sites,
        }


# ---------------------------------------------------------------------------
# per-function work counters, called with (tracer, args, kwargs, result)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path) if os.path.isfile(path) else 0
    except (TypeError, OSError):
        return 0


def _dtw_counts(tr: Tracer, args, kwargs, result) -> None:
    a, b = args[0], args[1]
    band = args[2] if len(args) > 2 else kwargs.get("band")
    n, m = np.asarray(a).size, np.asarray(b).size
    tr.count("align.dtw.cells", _band_cells(n, m, band))
    tr.peak("align.dtw.table_mb_computed", (n + 1) * (m + 1) * 8 / 1e6)


def _multi_align_counts(tr: Tracer, args, kwargs, result) -> None:
    tr.count("align.multi_align.iterations", result.iterations)
    tr.count("align.multi_align.converged", int(result.converged))


def _loss_counts(tr: Tracer, args, kwargs, result) -> None:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    tr.count("seqmodel.loss_and_grads.timesteps", sum(np.asarray(x).shape[0] for x, _ in batch))


def _train_counts(tr: Tracer, args, kwargs, result) -> None:
    tr.count("seqmodel.train.epochs", len(result.rows))


def _read_counts(tr: Tracer, args, kwargs, result) -> None:
    size = _file_bytes(args[0]) if args else 0
    if size:
        tr.count("dataio.read.files", 1)
        tr.count("dataio.read.bytes", size)


def _write_counts(tr: Tracer, args, kwargs, result) -> None:
    size = _file_bytes(args[0]) if args else 0
    if size:
        tr.count("dataio.write.files", 1)
        tr.count("dataio.write.bytes", size)


COUNTERS = {
    "align.dtw": _dtw_counts,
    "align.multi_align": _multi_align_counts,
    "seqmodel.loss_and_grads": _loss_counts,
    "seqmodel.train": _train_counts,
}
# Spans whose Python allocation peak is measured with tracemalloc.
ALLOC_PEAKS = ("discretize.validate_clusters",)


def _wrap(tr: Tracer, name: str, func):
    group = next((g for prefix, g in GROUPS.items() if name.startswith(prefix)), None)
    counter = COUNTERS.get(name)
    if group == "dataio.read":
        counter = _read_counts
    elif group == "dataio.write":
        counter = _write_counts
    alloc = name in ALLOC_PEAKS

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if alloc:
            tracemalloc.start()
        try:
            result = tr.call(name, group, func, args, kwargs)
        finally:
            if alloc:
                tr.peak(f"{name}.peak_mb", tracemalloc.get_traced_memory()[1] / 1e6)
                tracemalloc.stop()
        if counter is not None:
            counter(tr, args, kwargs, result)
        return result

    return wrapper


def install(package: str = "affectfuse") -> Tracer:
    """Wrap the traced functions and rebind every module attribute naming them."""
    tr = Tracer()
    targets = {"cli": importlib.import_module(f"{package}.cli").main}
    for mod_name in MODULES:
        mod = importlib.import_module(f"{package}.{mod_name}")
        names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
        for fname in (*names, *EXTRA_FUNCTIONS.get(mod_name, ())):
            targets[f"{mod_name}.{fname}"] = getattr(mod, fname)
    originals = {id(func): (func, _wrap(tr, name, func)) for name, func in targets.items()}
    for mod_name, cls_name, meth, span in METHODS:
        cls = getattr(importlib.import_module(f"{package}.{mod_name}"), cls_name)
        setattr(cls, meth, _wrap(tr, span, getattr(cls, meth)))
        tr.patched_sites += 1

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                tr.patched_sites += 1
    leftovers = unpatched(package, {id(f) for f, _ in originals.values()})
    if leftovers:
        raise RuntimeError(f"tracer left unwrapped references: {leftovers}")
    return tr


def unpatched(package: str, original_ids: set[int]) -> list[str]:
    """Module attributes of the package that still refer to an unwrapped original."""
    left = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in vars(mod).items():
            if id(value) in original_ids:
                left.append(f"{mod_name}.{attr}")
    return left
