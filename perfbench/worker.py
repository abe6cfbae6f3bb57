"""Runs one benchmark plan in a fresh interpreter.

Usage: python3 worker.py PLAN.json

The plan names the CLI calls of one batch, the seconds to measure and
whether to trace.  The worker imports relbohm, then repeats the batch
until the time budget is spent, so a run measures at least that long
and always at least one batch.  Each repetition is timed from the
first cli.main call to the last return; its output files are hashed
afterwards, outside the timed region.  Results (and spans, when traced) are written as JSON
when the run ends.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

#: hard cap on repetitions of a short batch
MAX_BATCHES = 30


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(show_config) -> str:
    try:
        deps = show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        return "unknown"


def run_context() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy.show_config),
        "scipy_blas": _blas_version(scipy.show_config),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def _work_sizes(cli, analyses) -> dict:
    """k-nodes of each packet config, built by the program's own parser."""
    sizes = {}
    for a in analyses:
        cfg = json.loads(Path(a["config_path"]).read_text())
        if "packet" in cfg:
            sizes[a["name"]] = {"k_nodes": int(cli._packet_from(cfg).k.size)}
    return sizes


def _call(main, argv) -> tuple:
    """(exit code, error text) of one CLI call; never raises."""
    try:
        return main(argv), None
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, f"SystemExit({exc.code!r})"
    except Exception:  # an escaping exception is a failed analysis
        return None, traceback.format_exc()


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    context = run_context()
    from relbohm import cli
    src = Path(plan["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"relbohm imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from checks import hash_outputs

    analyses = plan["analyses"]
    work = _work_sizes(cli, analyses)
    main_fn = cli.main
    tracer = None
    if plan["trace"]:
        from layers import ROOT, instrument
        from spans import Tracer
        tracer = Tracer()
        instrument(tracer)
        main_fn = tracer.wrap(cli.main, ROOT)

    batches = []
    began = time.perf_counter()
    while True:
        i = len(batches)
        calls = []
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for a in analyses:
            if tracer is not None:
                tracer.run_id = f"{i}/{a['name']}"
            rc, err = _call(main_fn, a["argv"])
            calls.append({"name": a["name"], "rc": rc, "error": err})
        t1 = time.perf_counter()
        cpu = _cpu_s() - cpu0
        batches.append({
            "i": i, "t0": t0, "t1": t1, "wall_s": t1 - t0, "cpu_s": cpu,
            "calls": calls,
            "hashes": {a["name"]: hash_outputs(a["out"]) for a in analyses},
        })
        if (time.perf_counter() - began >= plan["seconds"]
                or i + 1 >= MAX_BATCHES):
            break

    context["loadavg_end"] = os.getloadavg()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"context": context, "work": work, "batches": batches,
              "peak_rss_mb": peak_kb / 1024.0}
    Path(plan["result"]).write_text(json.dumps(result))
    if tracer is not None:
        Path(plan["spans"]).write_text(
            json.dumps([asdict(s) for s in tracer.spans]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
