"""Shape probes: single library calls timed at fixed sizes, one per process.

Usage: ``python3 bench/probes.py SRC_DIR PROBE SEED`` prints one JSON object of
metric values. Inputs are drawn from ``SEED``. Each probe mirrors the traffic
of one workload:

* ``dtw-<n>``: one ``align.dtw`` call on two length-n random walks with the
  default 10% band, timed (median of repeats), then repeated under
  ``tracemalloc`` for its allocation peak (gold-long).
* ``lstm-<name>``: ``SequenceModel.loss_and_grads`` on a regression batch of
  shape (B, T, D, H), median of repeats (pipeline-acc10).
* ``csv-7200``: writing and reading a 7200-row annotation CSV (gold-long).
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

DTW_SIZES = (600, 2400, 7200)
# name: (B, T, D, H)
LSTM_SHAPES = {
    "b8_t40_d6_h32": (8, 40, 6, 32),
    "b2_t60_d2_h64": (2, 60, 2, 64),
    "b32_t300_d8_h64": (32, 300, 8, 64),
}
PROBES_BY_WORKLOAD = {
    "gold-long": (*(f"dtw-{n}" for n in DTW_SIZES), "csv-7200"),
    "pipeline-acc10": tuple(f"lstm-{k}" for k in LSTM_SHAPES),
}


def metric_names() -> list[str]:
    names = []
    for n in DTW_SIZES:
        names += [f"probe.dtw.n{n}.s", f"probe.dtw.n{n}.peak_mb"]
    names += [f"probe.loss_and_grads.{k}.s" for k in LSTM_SHAPES]
    names += ["probe.csv.write7200.s", "probe.csv.read7200.s"]
    return names


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe(name: str, seed: int) -> dict[str, float]:
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    kind, _, arg = name.partition("-")
    if kind == "dtw":
        from affectfuse.align import default_band, dtw

        n = int(arg)
        a, b = np.cumsum(rng.standard_normal((2, n)), axis=1)
        band = default_band(n)
        seconds = _timed(lambda: dtw(a, b, band=band), 3 if n < 7200 else 1)
        tracemalloc.start()
        dtw(a, b, band=band)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {f"probe.dtw.n{n}.s": seconds, f"probe.dtw.n{n}.peak_mb": peak / 1e6}
    if kind == "lstm":
        from affectfuse.seqmodel import RegressorConfig, SequenceModel

        bsz, steps, dim, hidden = LSTM_SHAPES[arg]
        model = SequenceModel(RegressorConfig(input_dim=dim, hidden_dim=hidden, seed=seed))
        batch = [(rng.standard_normal((steps, dim)), rng.standard_normal(steps)) for _ in range(bsz)]
        return {f"probe.loss_and_grads.{arg}.s": _timed(lambda: model.loss_and_grads(batch), 3)}
    if kind == "csv":
        from affectfuse.core import AnnotationTrace
        from affectfuse.dataio import read_annotation_csv, write_annotation_csv

        trace = AnnotationTrace("r0", 2.0, rng.standard_normal(int(arg)), "arousal")
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            path = Path(tmp) / "trace.csv"
            write_s = _timed(lambda: write_annotation_csv(path, trace), 5)
            read_s = _timed(lambda: read_annotation_csv(path, "r0", "arousal"), 5)
        return {f"probe.csv.write{arg}.s": write_s, f"probe.csv.read{arg}.s": read_s}
    raise SystemExit(f"unknown probe {name!r}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    sys.stdout.write(json.dumps(probe(sys.argv[2], int(sys.argv[3]))) + "\n")
