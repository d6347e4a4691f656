"""steerkit benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):
  python3 bench/run.py --workload spin-sweep --seed 1 --seconds 15 --trace 0

Every measurement runs in fresh interpreters (bench/worker.py) that import
steerkit from ./src. With --trace 0 the run reports the end-to-end metrics:
set-up time is the median over SETUP_SAMPLES launches, the rest comes from
one interpreter that issues ops back to back for --seconds. With --trace 1 a
single interpreter runs a fixed number of op cycles with spans on every
public steerkit function and reports the per-layer metrics.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it records versions, nproc, the seed and the
thread-related environment as found; none of it is set here. The full
record is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # the run interpreter is one of them
BUDGET_S = 170.0
THREAD_ENV = (
    "STEER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)


class WorkerFailed(RuntimeError):
    pass


def launch(mode: str, args, deadline: float) -> dict:
    """Start one fresh interpreter and return the report it prints."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    launched = time.time()
    try:
        proc = subprocess.run(
            [*cmd, "--launched", repr(launched)], cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    setups = [launch("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    main_run = launch("run", args, deadline)
    reports = [*setups, main_run]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    decided = sum(r["decided"] for r in reports)
    metrics = {
        "setup_s": metric(statistics.median(r["setup_s"] for r in reports), "s"),
        "ops_per_s": metric(main_run["ops_per_s"], "1/s"),
        "op_p50_ms": metric(main_run["op_p50_ms"], "ms"),
        "op_p90_ms": metric(main_run["op_p90_ms"], "ms"),
        "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "frac"),
        "decided_frac": metric(decided / attempted, "frac"),
    }
    return metrics, reports


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    report = launch("trace", args, deadline)
    metrics = dict(report["metrics"])
    metrics["failed_frac"] = metric(report["failed"] / report["attempted"], "frac")
    metrics["max_abs_err"] = metric(report["max_abs_err"], "abs")
    return metrics, [report]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "steerkit" / "__init__.py").is_file():
        print(f"bench: no steerkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        metrics, reports = (per_layer if args.trace else end_to_end)(args, deadline)
    except (WorkerFailed, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    missed = sum(r["selftest_missed"] for r in reports)
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "selftest_missed": missed,
        "max_abs_err": max(r["max_abs_err"] for r in reports),
        "missing_metrics": sorted({m for r in reports for m in r.get("missing", [])}),
        "workers": reports,
    }
    result = {
        "correct": failed == 0 and missed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    summary = {k: v for k, v in info.items() if k != "workers"}
    print(json.dumps({"bench_info": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
