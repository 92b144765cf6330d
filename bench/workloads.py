"""The benchmark's workloads: which ``affectfuse`` subcommands run, at which sizes.

A workload is a set-up (stages whose outputs the measured loop reads) and a
loop (the stages timed on every iteration). Argument lists are templates:
``{S}`` is the set-up directory, ``{O}`` the directory of one loop iteration
and ``{seed}`` the run seed. Every subcommand runs with ``--jobs 1``.

Three sizes exist. ``bench`` is what ``run.py`` measures by default, sized so
that one run fits the benchmark's time budget. ``full`` is the scale each
workload was designed at (for ``pipeline-acc10`` the exact acceptance-10
arguments). ``tiny`` is for the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass

SIZES = ("tiny", "bench", "full")


@dataclass(frozen=True)
class Workload:
    setup: tuple[tuple[str, tuple[str, ...]], ...]
    loop: tuple[tuple[str, tuple[str, ...]], ...]


def _stage(name: str, *argv) -> tuple[str, tuple[str, ...]]:
    return name, (*(str(a) for a in argv), "--jobs", "1")


def _synth(recordings, duration, raters, feature_dim):
    return _stage(
        "synth", "synth", "--out", "{S}/data", "--recordings", recordings, "--duration", duration,
        "--rate", "2", "--raters", raters, "--feature-dim", feature_dim, "--seed", "{seed}",
    )


# ---------------------------------------------------------------------------
# pipeline-acc10: acceptance 10's pipeline; LSTM-bound

ACC10_SIZES = {
    # recordings, duration, train epochs/patience, fuse-late epochs/patience
    "tiny": (5, 40, (2, 2), (2, 2)),
    "bench": (8, 120, (4, 4), (3, 3)),
    "full": (8, 120, (100, 30), (150, 150)),
}


def pipeline_acc10(size: str) -> Workload:
    recordings, duration, (ep, pat), (fep, fpat) = ACC10_SIZES[size]
    trains = tuple(
        _stage(
            "train", "train", "--task", "stress", "--features", f"{{S}}/data/features/{fset}",
            "--gold", "{S}/gold", "--partitions", "{S}/data/partitions.csv", "--out", f"{{O}}/{fset}",
            "--window", "40", "--hop", "20", "--hidden", "32", "--lr", "2e-3", "--batch", "8",
            "--epochs", ep, "--patience", pat, "--seed", "{seed}",
        )
        for fset in ("modal_a", "modal_b")
    )
    return Workload(
        setup=(
            _synth(recordings, duration, 4, 6),
            # raaw's iteration count, and so its time, varies with the seed;
            # timed in the set-up it keeps the loop's work the same for every seed
            _stage("raaw", "raaw", "--annotations", "{S}/data/annotations", "--kind", "arousal",
                   "--out", "{S}/gold"),
        ),
        loop=(
            *trains,
            _stage(
                "fuse_late", "fuse-late", "--task", "stress",
                "--streams", "{O}/modal_a/preds", "{O}/modal_b/preds", "--gold", "{S}/gold",
                "--partitions", "{S}/data/partitions.csv", "--out", "{O}/fused",
                "--window", "60", "--hop", "30", "--batch", "2",
                "--epochs", fep, "--patience", fpat, "--seed", "{seed}",
            ),
            _stage("eval", "eval", "--pred", "{O}/fused/preds/devel", "--gold", "{S}/gold"),
        ),
    )


# ---------------------------------------------------------------------------
# gold-long: one long recording, 5 raters; align-bound, no seqmodel code.
# discretize rides along on the recording's ~36 segments: it is the only
# workload that exercises the discretize layer. It uses k-means: the arousal
# default, a 5-component Gaussian mixture, stops with exit 4 ("EM
# log-likelihood decreased") on some seeds at this segment count.

GOLD_LONG_SECONDS = {"tiny": 150, "bench": 600, "full": 3600}


def gold_long(size: str) -> Workload:
    return Workload(
        setup=(_synth(1, GOLD_LONG_SECONDS[size], 5, 2),),
        loop=(
            _stage("raaw", "raaw", "--annotations", "{S}/data/annotations", "--kind", "arousal",
                   "--out", "{O}/gold"),
            _stage("physio", "physio", "--annotations", "{S}/data/annotations", "--kind", "arousal",
                   "--eda", "{S}/data/eda", "--out", "{O}/gold_physio"),
            _stage("discretize", "discretize", "--gold", "{O}/gold", "--segments",
                   "{S}/data/segments.csv", "--target", "arousal", "--method", "kmeans",
                   "--out", "{O}/labels.csv", "--model-out", "{O}/classes.json", "--seed", "{seed}"),
        ),
    )


WORKLOADS = {
    "pipeline-acc10": pipeline_acc10,
    "gold-long": gold_long,
}


def expand(stages, setup_dir: str, out_dir: str, seed: int) -> list[list]:
    """Fill the path and seed placeholders of a stage list."""
    fill = {"{S}": setup_dir, "{O}": out_dir, "{seed}": str(seed)}
    out = []
    for name, argv in stages:
        args = []
        for a in argv:
            for key, val in fill.items():
                a = a.replace(key, val)
            args.append(a)
        out.append([name, args])
    return out
