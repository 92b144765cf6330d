"""affectfuse benchmark: closed-loop CLI workloads, stage timings, traced per-module numbers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size bench]

One client runs the workload's subcommands in sequence, each iteration in a
fresh process, until ``--seconds`` have passed (at least five iterations). The
set-up runs three times first and ``setup_s`` is its median. Every
subcommand's exit code and a set of output checks count as operations;
``failed`` counts those that did not hold, nothing is retried.

With ``--trace 0`` the last stdout line reports the end-to-end metrics listed
in ``BENCHMARK.json``, measured with tracing off. With ``--trace 1`` the set-up
runs twice, untraced then traced, and loop iterations alternate between
untraced and traced. The line then reports the per-layer metrics: per-stage
numbers from the untraced processes, per-module span numbers from the traced
ones, the tracing overhead, and the shape probes of the workload. Metrics of a
module or probe the workload does not exercise read 0. The line before it is
an ``environment`` JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import probes  # noqa: E402
from workloads import SIZES, WORKLOADS, expand  # noqa: E402

SETUP_REPEATS = 3
# a median of several iterations even when --seconds is short
MIN_ITERATIONS = 5
WORKER_TIMEOUT_S = 160
STAGES = ("raaw", "physio", "discretize", "train", "fuse_late")


class Ledger:
    """Operations attempted and failed; every failure is also logged to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_worker(src: Path, stages: list, trace: bool, work: Path, ledger: Ledger) -> dict | None:
    """Run stages in a fresh process; returns its report plus ``wall_s``, or None."""
    spec = work / "spec.json"
    spec.write_text(json.dumps({"src": str(src), "stages": stages, "trace": trace}))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(spec)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=work,
        )
    except subprocess.TimeoutExpired:
        ledger.check(False, f"worker timed out after {WORKER_TIMEOUT_S}s")
        return None
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        ledger.check(False, f"worker exited {proc.returncode}: {proc.stderr[-600:]}")
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = wall
    for st in report["stages"]:
        ledger.check(st["rc"] == 0, f"{st['stage']} exited {st['rc']}: {st['err_tail']}")
    if len(report["stages"]) < len(stages):
        ledger.check(False, f"{len(stages) - len(report['stages'])} stages not run after a failure")
        return None
    return report


def stage_out(report: dict, stage: str) -> dict:
    return next((s["out"] for s in report["stages"] if s["stage"] == stage), {})


def stage_seconds(report: dict) -> dict[str, float]:
    sums = dict.fromkeys(STAGES, 0.0)
    for s in report["stages"]:
        if s["stage"] in sums:
            sums[s["stage"]] += s["seconds"]
    return sums


# ---------------------------------------------------------------------------
# output checks


def sidecars(root: Path, sub: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted((root / sub).glob("*.json"))]


def check_outputs(workload: str, report: dict, out: Path, ledger: Ledger) -> None:
    if workload == "pipeline-acc10":
        fused = float(stage_out(report, "fuse_late")["devel_ccc"])
        ccc = float(stage_out(report, "eval")["ccc"])
        ledger.check(abs(ccc - fused) <= 1e-6, f"eval ccc {ccc} != fuse-late devel_ccc {fused}")
    elif workload == "gold-long":
        for sub in ("gold", "gold_physio"):
            for meta in sidecars(out, sub):
                ledger.check(
                    meta["agreement_mean"] >= meta["pre_agreement_mean"],
                    f"{sub}/{meta['recording_id']}: agreement {meta['agreement_mean']} "
                    f"< pre-alignment {meta['pre_agreement_mean']}",
                )


def expected_dtw_calls(out: Path) -> int:
    """DTW calls implied by the gold sidecars a process wrote: raters x iterations.

    ``physio`` runs one extra ``raaw`` to rank the annotators, on the same
    annotations and settings as the ``raaw`` stage, so its count is read from
    the raaw sidecar of the same recording.
    """
    total = 0
    raaw_by_rec = {}
    for meta in sidecars(out, "gold"):
        raaw_by_rec[meta["recording_id"]] = len(meta["rater_ids"]) * meta["iterations"]
        total += raaw_by_rec[meta["recording_id"]]
    for meta in sidecars(out, "gold_physio"):
        total += len(meta["rater_ids"]) * meta["iterations"] + raaw_by_rec[meta["recording_id"]]
    return total


def history_rows(out: Path) -> int:
    return sum(len(p.read_text().splitlines()) - 1 for p in out.rglob("history.csv"))


def self_check(summary: dict, out: Path, ledger: Ledger) -> None:
    """The tracer's span counts must match counts the program wrote itself."""
    dtw = summary["calls"].get("align.dtw", 0)
    want = expected_dtw_calls(out)
    ledger.check(dtw == want, f"tracer saw {dtw} dtw calls, sidecars imply {want}")
    epochs = summary["counters"].get("seqmodel.train.epochs", 0)
    rows = history_rows(out)
    ledger.check(epochs == rows, f"tracer saw {epochs} epochs, history.csv files hold {rows}")
    ledger.check(summary["patched_sites"] > 0, "tracer patched nothing")


# ---------------------------------------------------------------------------
# per-module metrics from span aggregates


def merge(a: dict, b: dict) -> dict:
    out = {"patched_sites": a["patched_sites"]}
    for key in ("calls", "total", "self", "counters"):
        out[key] = {k: a[key].get(k, 0) + b[key].get(k, 0) for k in {*a[key], *b[key]}}
    out["peaks"] = {k: max(a["peaks"].get(k, 0), b["peaks"].get(k, 0)) for k in {*a["peaks"], *b["peaks"]}}
    return out


def module_metrics(s: dict) -> dict[str, float]:
    calls, total, own, ctr, peaks = (s[k] for k in ("calls", "total", "self", "counters", "peaks"))

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    m = {
        "align.dtw.calls": calls.get("align.dtw", 0),
        "align.dtw.busy_s": total.get("align.dtw", 0.0),
        "align.dtw.cells": ctr.get("align.dtw.cells", 0),
        "align.dtw.table_mb_computed": peaks.get("align.dtw.table_mb_computed", 0.0),
        "align.multi_align.self_s": own.get("align.multi_align", 0.0),
        "align.multi_align.iterations": ctr.get("align.multi_align.iterations", 0),
        "align.multi_align.converged_frac": ratio(
            ctr.get("align.multi_align.converged", 0), calls.get("align.multi_align", 0)
        ),
        "align.warp_to_reference.busy_s": total.get("align.warp_to_reference", 0.0),
        "fuse.raaw.self_s": own.get("fuse.raaw", 0.0),
        "fuse.physio_fuse.self_s": own.get("fuse.physio_fuse", 0.0),
        "fuse.ewe_weights.busy_s": total.get("fuse.ewe_weights", 0.0),
        "fuse.prepare_physio.busy_s": total.get("fuse.prepare_physio", 0.0),
        "core.savgol_smooth.busy_s": total.get("core.savgol_smooth", 0.0),
        "seqmodel.loss_and_grads.calls": calls.get("seqmodel.loss_and_grads", 0),
        "seqmodel.loss_and_grads.busy_s": total.get("seqmodel.loss_and_grads", 0.0),
        "seqmodel.loss_and_grads.timesteps": ctr.get("seqmodel.loss_and_grads.timesteps", 0),
        "seqmodel.loss_and_grads.us_per_timestep": ratio(
            total.get("seqmodel.loss_and_grads", 0.0),
            ctr.get("seqmodel.loss_and_grads.timesteps", 0), 1e6,
        ),
        "seqmodel.Adam.step.busy_s": total.get("seqmodel.Adam.step", 0.0),
        "seqmodel.evaluate.busy_s": total.get("seqmodel.evaluate", 0.0),
        "seqmodel.predict.busy_s": total.get("seqmodel.predict", 0.0),
        "seqmodel.train.epochs": ctr.get("seqmodel.train.epochs", 0),
        "seqmodel.train.epoch_s": ratio(
            total.get("seqmodel.train", 0.0), ctr.get("seqmodel.train.epochs", 0)
        ),
        "seqmodel.train.self_s": own.get("seqmodel.train", 0.0),
        "seqmodel.save_checkpoint.busy_s": total.get("seqmodel.save_checkpoint", 0.0),
        "latefusion.fuse_predictions.self_s": own.get("latefusion.fuse_predictions", 0.0),
        "discretize.segment_features.busy_s": total.get("discretize.segment_features", 0.0),
        "discretize.fit_class_model.busy_s": total.get("discretize.fit_class_model", 0.0),
        "discretize.validate_clusters.busy_s": total.get("discretize.validate_clusters", 0.0),
        "discretize.validate_clusters.peak_mb": peaks.get("discretize.validate_clusters.peak_mb", 0.0),
        "dataio.align_to_labels.busy_s": total.get("dataio.align_to_labels", 0.0),
        "dataio.window.busy_s": total.get("dataio.window", 0.0),
        "synth.write_corpus.self_s": own.get("synth.write_corpus", 0.0),
        "cli.self_s": own.get("cli", 0.0),
    }
    for direction in ("read", "write"):
        m[f"dataio.{direction}.calls"] = ctr.get(f"dataio.{direction}.files", 0)
        m[f"dataio.{direction}.busy_s"] = total.get(f"dataio.{direction}", 0.0)
        m[f"dataio.{direction}.bytes"] = ctr.get(f"dataio.{direction}.bytes", 0)
    return m


# ---------------------------------------------------------------------------
# environment


def environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as exc:  # show_config's layout differs across numpy versions
        blas_info = {"name": None, "version": None, "error": repr(exc)}
    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info,
        "threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# one run


def median(values) -> float:
    return float(statistics.median(values))


def measure(name: str, size: str, seed: int, seconds: float, trace: bool, root: Path, work: Path):
    workload = WORKLOADS[name](size)
    src = root / "src"
    ledger = Ledger()

    # traced runs set up twice, untraced then traced, so stage times stay untraced
    setups = []
    setup_dir = work / "setup0"
    setup_digest = None
    for k in range(2 if trace else SETUP_REPEATS):
        traced = trace and k == 1
        d = work / f"setup{k}"
        d.mkdir(parents=True)
        report = run_worker(src, expand(workload.setup, str(d), str(d), seed), traced, d, ledger)
        if report is None:
            return ledger, None
        (d / "spec.json").unlink()
        report["traced"] = traced
        if traced:
            self_check(report["trace"], d, ledger)
        digest = tree_digest(d)
        if setup_digest is None:
            setup_digest = digest
        else:
            ledger.check(digest == setup_digest, f"set-up {k} output differs from set-up 0")
            shutil.rmtree(d)
        setups.append(report)

    iterations: list[dict] = []
    loop_digest = None
    start = time.perf_counter()
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        out = work / f"iter{i}"
        out.mkdir()
        report = run_worker(src, expand(workload.loop, str(setup_dir), str(out), seed), traced, out, ledger)
        if report is None:
            return ledger, None
        (out / "spec.json").unlink()
        report["traced"] = traced
        check_outputs(name, report, out, ledger)
        digest = tree_digest(out)
        if loop_digest is None:
            loop_digest = digest
        else:
            ledger.check(digest == loop_digest, f"iteration {i} output differs from iteration 0")
        if traced:
            self_check(report["trace"], out, ledger)
        shutil.rmtree(out)
        iterations.append(report)
        i += 1

    plain = [r for r in iterations if not r["traced"]]
    first = plain[0]
    plain_setups = [r for r in setups if not r["traced"]]
    setup_stages = [stage_seconds(r) for r in plain_setups]
    loop_stages = [stage_seconds(r) for r in plain]
    stage_s = {
        st: median([s[st] for s in setup_stages]) + median([s[st] for s in loop_stages]) for st in STAGES
    }
    raaw_out = stage_out(first, "raaw") or stage_out(setups[0], "raaw")
    wall = median([r["wall_s"] for r in plain])
    metrics = {
        "setup_s": median([r["wall_s"] for r in plain_setups]),
        "wall_s": wall,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "agreement_mean": float(raaw_out.get("agreement_mean", 0.0)),
    }
    layer = {f"{st}_s": stage_s[st] for st in STAGES}
    layer.update(
        {
            "devel_ccc": float(stage_out(first, "fuse_late").get("devel_ccc", 0.0)),
            "silhouette": float(stage_out(first, "discretize").get("silhouette", 0.0)),
            "proc.cpu_sys_s": median([r["cpu_sys_s"] for r in plain]),
            "proc.minflt": median([r["minflt"] for r in plain]),
        }
    )
    print(
        "summary " + json.dumps({"walls": [r["wall_s"] for r in plain], **metrics, **layer}),
        file=sys.stderr,
    )
    if not trace:
        return ledger, metrics
    traced_setup = setups[1]["trace"]
    traced_runs = [module_metrics(merge(traced_setup, r["trace"])) for r in iterations if r["traced"]]
    for key in traced_runs[0]:
        layer[key] = median([t[key] for t in traced_runs])
    traced_wall = median([r["wall_s"] for r in iterations if r["traced"]])
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - wall
    layer["trace.overhead_frac"] = (traced_wall - wall) / wall
    for metric in probes.metric_names():
        layer[metric] = 0.0
    for probe in probes.PROBES_BY_WORKLOAD[name]:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probes.py"), str(src), probe, str(seed)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=work,
        )
        if ledger.check(proc.returncode == 0, f"probe {probe} exited {proc.returncode}: {proc.stderr[-400:]}"):
            layer.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    layer["ops_failed_frac"] = ledger.failed / max(1, ledger.attempted)
    return ledger, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench")
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "affectfuse" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no affectfuse source tree and BENCHMARK.json under {root}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment(root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ledger, values = measure(
            args.workload, args.size, args.seed, args.seconds, bool(args.trace), root, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    if values is None:
        print("error: a stage failed; no metrics", file=sys.stderr)
        return 1
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        print(f"error: metrics out of step with BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
