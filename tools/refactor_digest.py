"""Digest of every output a fixed set of CLI runs writes, for refactor checks.

A refactor that claims byte-identical behaviour runs this script on the
source tree before and after the change and compares the two outputs::

    python3 tools/refactor_digest.py --src PARENT_CHECKOUT > before.txt
    python3 tools/refactor_digest.py --src .               > after.txt
    diff before.txt after.txt

Three paths run under ``--src`` (its ``src/`` goes on ``PYTHONPATH``), each
in a fresh process per command with ``--jobs 1``:

* ``acc10``: the acceptance-10 pipeline at its exact arguments (synth, raaw,
  train x2, fuse-late, eval);
* ``sent``: synth, raaw, discretize, ``train --task sent`` x2,
  ``fuse-late --task sent`` and ``eval --pred-labels``;
* ``gold-long``: one 10-minute recording with 5 raters through
  ``raaw --dump-paths``, ``physio`` and ``discretize --model-out``.

Printed: a ``numeric_env`` line, then each command's stdout with the run root
replaced by ``<run>``, then one sorted ``path sha256`` line per file written,
the file count and one sha256 over those lines, so a diff of two outputs
names the files that differ. Two digests compare only under equal
``numeric_env`` lines: the BLAS core and the SIMD kernels that OpenBLAS and
numpy pick at run time change the last bits of some outputs. The line names
the numpy version, its baseline and the dispatch targets this CPU runs, the
OpenBLAS version and core (``unknown`` where numpy carries no
``scipy_openblas`` library), and the glibc version. Each command's wall
seconds, and each path's total, go to stderr, so timings never enter that
diff. ``--work DIR`` keeps the run tree under DIR, which must be empty or
missing; without it the tree goes to a temporary directory that is deleted
afterwards. Standard library only; the full run takes a few minutes on two
cores.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ACC10 = [
    ["synth", "--out", "{R}/data", "--recordings", "8", "--duration", "120",
     "--rate", "2", "--raters", "4", "--feature-dim", "6", "--seed", "101"],
    ["raaw", "--annotations", "{R}/data/annotations", "--kind", "arousal", "--out", "{R}/gold"],
    *(
        ["train", "--task", "stress", "--features", f"{{R}}/data/features/{fset}",
         "--gold", "{R}/gold", "--partitions", "{R}/data/partitions.csv", "--out", f"{{R}}/{fset}",
         "--window", "40", "--hop", "20", "--hidden", "32", "--lr", "2e-3",
         "--batch", "8", "--epochs", "100", "--patience", "30", "--seed", "101"]
        for fset in ("modal_a", "modal_b")
    ),
    ["fuse-late", "--task", "stress", "--streams", "{R}/modal_a/preds", "{R}/modal_b/preds",
     "--gold", "{R}/gold", "--partitions", "{R}/data/partitions.csv", "--out", "{R}/fused",
     "--window", "60", "--hop", "30", "--batch", "2",
     "--epochs", "150", "--patience", "150", "--seed", "101"],
    ["eval", "--pred", "{R}/fused/preds/devel", "--gold", "{R}/gold"],
]

SENT = [
    ["synth", "--out", "{R}/data", "--recordings", "6", "--duration", "120",
     "--raters", "3", "--feature-dim", "4", "--kind", "valence", "--seed", "7"],
    ["raaw", "--annotations", "{R}/data/annotations", "--kind", "valence", "--out", "{R}/gold"],
    ["discretize", "--gold", "{R}/gold", "--segments", "{R}/data/segments.csv",
     "--target", "valence", "--out", "{R}/labels.csv", "--seed", "7"],
    *(
        ["train", "--task", "sent", "--features", f"{{R}}/data/features/{fset}",
         "--segments", "{R}/data/segments.csv", "--labels", "{R}/labels.csv",
         "--out", f"{{R}}/{fset}", "--hidden", "16", "--epochs", "20", "--patience", "20",
         "--batch", "8", "--seed", "7"]
        for fset in ("modal_a", "modal_b")
    ),
    ["fuse-late", "--task", "sent", "--streams", "{R}/modal_a/preds", "{R}/modal_b/preds",
     "--gold-labels", "{R}/labels.csv", "--out", "{R}/fused",
     "--epochs", "20", "--patience", "20", "--batch", "8", "--seed", "7"],
    ["eval", "--pred-labels", "{R}/fused/preds/devel_labels.csv", "--gold-labels", "{R}/labels.csv"],
]

GOLD_LONG = [
    ["synth", "--out", "{R}/data", "--recordings", "1", "--duration", "600",
     "--rate", "2", "--raters", "5", "--feature-dim", "2", "--seed", "39"],
    ["raaw", "--annotations", "{R}/data/annotations", "--kind", "arousal", "--out", "{R}/gold",
     "--dump-paths", "{R}/paths"],
    ["physio", "--annotations", "{R}/data/annotations", "--kind", "arousal",
     "--eda", "{R}/data/eda", "--out", "{R}/gold_physio"],
    ["discretize", "--gold", "{R}/gold", "--segments", "{R}/data/segments.csv",
     "--target", "arousal", "--method", "kmeans", "--out", "{R}/labels.csv",
     "--model-out", "{R}/classes.json", "--seed", "39"],
]

PATHS = {"acc10": ACC10, "sent": SENT, "gold-long": GOLD_LONG}

# run in a child with the commands' environment, so that this script imports nothing outside the standard library
NUMERIC_ENV = """
import ctypes, glob, os, platform
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

def openblas(path):
    lib = ctypes.CDLL(path)
    def text(name):
        func = getattr(lib, name)
        func.argtypes, func.restype = [], ctypes.c_char_p
        return func().decode()
    return text("scipy_openblas_get_config64_").split()[1] + "/" + text("scipy_openblas_get_corename64_")

blas = "unknown"
for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*scipy_openblas*")):
    try:
        blas = openblas(path)
    except (OSError, AttributeError, IndexError):
        pass
dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
print(f"numeric_env numpy={np.__version__} baseline={','.join(umath.__cpu_baseline__)}"
      f" dispatch={','.join(dispatch) or 'none'} openblas={blas} glibc={platform.libc_ver()[1] or 'unknown'}")
"""


def _env(src: Path) -> dict[str, str]:
    """The environment every child runs in: ``src/`` on ``PYTHONPATH`` and no data root."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    env.pop("AFFECTFUSE_DATA_ROOT", None)
    return env


def numeric_env(src: Path) -> str:
    """The ``numeric_env`` line: the libraries and CPU kernels the commands compute with."""
    proc = subprocess.run([sys.executable, "-c", NUMERIC_ENV], env=_env(src), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"reading the numeric environment failed:\n{proc.stderr}")
    return proc.stdout.strip()


def run_path(src: Path, root: Path, commands: list[list[str]]) -> list[str]:
    """Run one path's commands in order; returns their path-free stdout lines."""
    env = _env(src)
    lines = []
    total = 0.0
    for template in commands:
        argv = [a.replace("{R}", str(root)) for a in template] + ["--jobs", "1"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "affectfuse", *argv],
            env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
        total += seconds
        print(f"{root.name} {argv[0]}: {seconds:.2f} s", file=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"{argv[0]} under {root} exited {proc.returncode}:\n{proc.stderr}")
        lines.append(f"$ {' '.join(template)}")
        lines += proc.stdout.replace(str(root), "<run>").splitlines()
    print(f"{root.name} total: {total:.2f} s", file=sys.stderr)
    return lines


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):  # 1 MiB at a time: a file is never held whole
            digest.update(chunk)
    return digest.hexdigest()


def file_digests(root: Path) -> list[str]:
    """One ``path sha256`` line per file under ``root``, in sorted path order."""
    return [f"{p.relative_to(root)} {_sha256(p)}" for p in sorted(root.rglob("*")) if p.is_file()]


def run_all(src: Path, work: Path) -> list[str]:
    """Run every path under ``work``, print the numeric environment and their stdout and return the file digests."""
    print(numeric_env(src))
    for name, commands in PATHS.items():
        print(f"## {name}")
        print("\n".join(run_path(src, work / name, commands)))
    return file_digests(work)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, help="source tree holding src/affectfuse")
    parser.add_argument(
        "--work", default=None,
        help="empty or missing directory to create and keep the run outputs in (default: a deleted temp dir)",
    )
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "src" / "affectfuse").is_dir():
        parser.error(f"no src/affectfuse under {src}")

    if args.work is None:
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_all(src, Path(tmp))
    else:
        work = Path(args.work).resolve()
        if work.exists() and (not work.is_dir() or any(work.iterdir())):
            parser.error(f"--work {work} is not an empty directory")
        work.mkdir(parents=True, exist_ok=True)
        digests = run_all(src, work)
    print("\n".join(digests))
    print(f"files={len(digests)}")
    print(f"digest={hashlib.sha256(chr(10).join(digests).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
