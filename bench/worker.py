"""One fresh interpreter of a benchmark run; started by run.py, prints one JSON line.

Modes:
  setup  import steerkit and run the workload's first op; report how long
         the interpreter took from launch until that op returned.
  run    the same first op, then whole cycles of ops back to back until
         `--seconds` have passed; report throughput, latency and memory.
  trace  a fixed number of cycles, once plain and once with spans on every
         public steerkit function; report per-layer metrics.

Outputs are checked after the timed loop, never inside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Context, schedule  # noqa: E402


def check_all(workload, results) -> dict:
    """Checks with the true references, then with corrupted ones."""
    failed = decided = missed = 0
    max_err = 0.0
    for op, output in results:
        try:
            verdict = workload.check(op, output)
        except Exception:  # a malformed output is a failed op
            failed += 1
            continue
        failed += not verdict.ok
        decided += verdict.ok and verdict.decided
        max_err = max(max_err, verdict.err)
        try:
            missed += workload.check(op, output, corrupt=True).ok
        except Exception:
            pass
    return {
        "attempted": len(results),
        "failed": failed,
        "decided": decided,
        "max_abs_err": max_err,
        "selftest_missed": missed,
    }


def run_op(workload, op, ctx):
    try:
        return workload.run(op, ctx)
    except Exception as exc:  # counted as a failed op by the check
        return exc


def run_ops(workload, ops, ctx, tracer=None) -> list:
    results = []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k + 1
        results.append((op, run_op(workload, op, ctx)))
    return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--launched", type=float, required=True, help="time.time() at launch")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    ctx = Context(OUT / f"ops-{os.getpid()}")
    cycles = schedule(workload, args.seed)
    first = next(cycles)[0]
    first_result = run_op(workload, first, ctx)
    setup_s = time.time() - args.launched
    import steerkit

    if Path(steerkit.__file__).resolve().parent != ROOT / "src" / "steerkit":
        raise SystemExit(f"steerkit imported from {steerkit.__file__}, not from {ROOT / 'src'}")
    report = {"setup_s": setup_s}
    results = [(first, first_result)]

    if args.mode == "run":
        latencies = []
        start = time.perf_counter()
        deadline = start + args.seconds
        while time.perf_counter() < deadline:
            for op in next(cycles):
                t0 = time.perf_counter()
                output = run_op(workload, op, ctx)
                latencies.append(time.perf_counter() - t0)
                results.append((op, output))
        elapsed = time.perf_counter() - start
        report.update(
            peak_rss_mb=peak_rss_mb(),
            timed_ops=len(latencies),
            elapsed_s=elapsed,
            ops_per_s=len(latencies) / elapsed,
            op_p50_ms=1e3 * statistics.median(latencies),
            op_p90_ms=1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        )
    elif args.mode == "trace":
        from spans import Tracer, layer_metrics

        ops = [op for _ in range(workload.trace_cycles) for op in next(cycles)]
        t0 = time.perf_counter()
        run_ops(workload, ops, ctx)
        plain_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        results += run_ops(workload, ops, ctx, tracer)
        traced_s = time.perf_counter() - t0
        metrics, missing = layer_metrics(tracer)
        metrics["trace.overhead_frac"] = {"value": (traced_s - plain_s) / plain_s, "unit": "ratio"}
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_file)
        report.update(
            metrics=metrics,
            missing=missing,
            plain_s=plain_s,
            traced_s=traced_s,
            spans=len(tracer.spans),
            spans_file=str(spans_file.relative_to(ROOT)),
        )

    report.update(check_all(workload, results))
    ctx.cleanup()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
