"""Run a sequence of ``affectfuse`` subcommands in one fresh process.

Usage: ``python3 bench/worker.py SPEC_JSON``, where the spec names the
checkout's ``src`` directory, the stages as ``[stage, argv]`` pairs and whether
to trace. Each stage calls ``affectfuse.cli.main(argv)`` in this process, the
way the installed ``affectfuse`` command does. The report printed as one JSON
line on stdout holds, per stage, the exit code, the seconds it took and the
``key=value`` lines it printed, plus this process's resource usage and, when
traced, the span aggregates. Execution stops at the first stage that fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _parse(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            values[key] = val
    return values


def run(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import affectfuse.cli

    if Path(affectfuse.cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported affectfuse from {affectfuse.cli.__file__}, not {src}")
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.install()
    stages = []
    for name, argv in spec["stages"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = affectfuse.cli.main(list(argv))
            except Exception as exc:  # a traceback is a failed stage, never a crash of the bench
                print(f"{type(exc).__name__}: {exc}", file=err)
                rc = 1
        seconds = time.perf_counter() - start
        stages.append(
            {"stage": name, "rc": rc, "seconds": seconds, "out": _parse(out.getvalue()),
             "err_tail": err.getvalue()[-400:] if rc else ""}
        )
        if rc != 0:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "stages": stages,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_sys_s": usage.ru_stime,
        "minflt": usage.ru_minflt,
        "trace": tracer.summary() if tracer is not None else None,
    }


if __name__ == "__main__":
    report = run(json.loads(Path(sys.argv[1]).read_text()))
    sys.stdout.write(json.dumps(report) + "\n")
