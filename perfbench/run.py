"""relbohm benchmark: one seeded run of one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload explode-cos2 --seed 1 \
        --seconds 20 --trace 0

Generates the workload's configs from the seed, measures the import
cost of a fresh interpreter (``setup_s``), runs the batch in a fresh
worker process (``worker.py``) for at least ``--seconds`` seconds,
checks every output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Everything the run writes goes under
``.perfbench_run/`` in the repository root; the full report of a run is
``.perfbench_run/<workload>-s<seed>-t<trace>/report.json``.
See README.md in this directory for the workloads and metric names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import HashStore, check_outputs, code_fingerprint  # noqa: E402
from workloads import WORKLOADS, config_hash, generate  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".perfbench_run"

#: fresh-interpreter imports timed per run (after one untimed warm-up)
SETUP_REPEATS = 3
#: a run must finish within this many seconds
RUN_LIMIT_S = 170.0
#: BLAS threads, fixed for every run and every process
BLAS_THREADS = "1"
#: metrics of a --trace 0 run (see README.md)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def setup_times(env: dict) -> list:
    """Wall seconds of fresh interpreters that import relbohm.cli."""
    cmd = [sys.executable, "-c", "import relbohm.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _write_inputs(run_dir: Path, analyses) -> list:
    planned = []
    (run_dir / "configs").mkdir()
    for a in analyses:
        cfg_path = run_dir / "configs" / f"{a.name}.json"
        out = run_dir / "out" / a.name
        out.mkdir(parents=True)
        cfg_path.write_text(json.dumps(a.config, indent=1, sort_keys=True))
        planned.append({
            "name": a.name, "kind": a.kind, "config_path": str(cfg_path),
            "config_sha256": config_hash(a.config), "out": str(out),
            "argv": [a.command, "--config", str(cfg_path), "--out",
                     str(out), "--threads", str(a.threads)],
        })
    return planned


def _verdicts(planned, analyses, result, store_key, store) -> dict:
    """Per-analysis status: failures and wrong answers."""
    verdicts = {}
    for p, a in zip(planned, analyses):
        calls = [c for b in result["batches"] for c in b["calls"]
                 if c["name"] == a.name]
        hashes = [b["hashes"][a.name] for b in result["batches"]]
        exits = sorted({c["rc"] for c in calls}, key=str)
        errors = sorted({c["error"] for c in calls if c["error"]})
        problems = (check_outputs(a.kind, p["out"], a.config)
                    if exits == [0] else [])
        drift = [f for h in hashes[1:] for f in set(h) | set(hashes[0])
                 if h.get(f) != hashes[0].get(f)]
        drift += store.check(f"{store_key}/{a.name}/{p['config_sha256']}",
                             hashes[0])
        if drift:
            problems.append(f"outputs not deterministic: {sorted(set(drift))}")
        verdicts[a.name] = {
            "exit_codes": exits, "errors": errors, "problems": problems,
            "failed": exits != [0] or bool(problems),
            # a wrong answer is one presented as a success
            "wrong": bool(problems),
        }
    return verdicts


def _work(a) -> dict:
    """Work sizes readable from the config alone."""
    c = a.config
    if a.kind in ("explode", "modes"):
        g = c["grid"]
        work = {"grid_points": g["n_x"] * g["n_t"],
                "cell_levels": (g["n_x"] - 1) * (g["n_t"] - 1)
                * c["n_levels"]}
        if a.kind == "explode":
            work["density_points"] = c["density_x"]["n"] * len(c["t_values"])
        return work
    if a.kind == "nearnr":
        return {"field_points": c["x"]["n"]}
    if a.kind == "dirac":
        return {"field_points": c["n_points"]}
    return {"field_points": c["n_points"], "box_points": c["box_n"] ** 3}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2
    if not (SRC / "relbohm" / "cli.py").is_file():
        print(f"perfbench: no relbohm source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    started = time.perf_counter()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = RUN_ROOT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    analyses = generate(args.workload, args.seed)
    planned = _write_inputs(run_dir, analyses)
    env = worker_env()
    setup = [] if args.trace else setup_times(env)

    plan = {"src": str(SRC), "analyses": planned, "seconds": args.seconds,
            "trace": bool(args.trace), "result": str(run_dir / "result.json"),
            "spans": str(run_dir / "spans.json")}
    (run_dir / "plan.json").write_text(json.dumps(plan, indent=1))
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    with open(run_dir / "worker.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"),
                 str(run_dir / "plan.json")],
                env=env, cwd=ROOT, stdout=log, stderr=log, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker exceeded {budget:.0f} s; see "
                  f"{run_dir / 'worker.log'}", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}; see "
              f"{run_dir / 'worker.log'}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "result.json").read_text())

    store = HashStore(RUN_ROOT / "hashes.json")
    store_key = (f"{code_fingerprint(SRC / 'relbohm')}/{args.workload}/"
                 f"{args.seed}")
    verdicts = _verdicts(planned, analyses, result, store_key, store)
    store.save()

    walls = [b["wall_s"] for b in result["batches"]]
    if args.trace:
        from layers import run_metrics
        from spans import Span
        spans = [Span(**s) for s in
                 json.loads((run_dir / "spans.json").read_text())]
        metrics = run_metrics(spans, result["batches"])
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    failed = sum(v["failed"] for v in verdicts.values())
    line = {"correct": not any(v["wrong"] for v in verdicts.values()),
            "attempted": len(analyses), "failed": failed,
            "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "context": result["context"],
        "configs": {p["name"]: p["config_sha256"] for p in planned},
        "work": {a.name: {**_work(a), **result["work"].get(a.name, {})}
                 for a in analyses},
        "analyses": verdicts, "fail_frac": failed / len(analyses),
        "batch_wall_s": walls, "setup_s": setup, "result": line,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1))
    print(f"perfbench: {tag}: {len(walls)} batches, fail_frac "
          f"{report['fail_frac']:.3f}, report {run_dir / 'report.json'}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
