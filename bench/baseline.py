"""Re-measure the three single-run timings quoted as the ROADMAP baseline.

Usage (from the repository root):
  python3 bench/baseline.py [--repeats 7]

Cases, each timed `--repeats` times after one warm-up in this interpreter:
  library-sweep   families.sweep("product-spin", "werner", ...) over 1000 points
  cli-sweep       `steerkit sweep` over 2000 points, thread pool at its default
  lhs-feasible    oracle.lhs_feasible, Werner μ = 0.9, mub3, grid 800

Prints, per case, the median, quartiles, minimum and maximum in seconds next
to the quoted figure, and whether the figure lies within the measured range.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from workloads import run_cli  # noqa: E402

QUOTED_S = {"library-sweep": 1.54, "cli-sweep": 3.90, "lhs-feasible": 0.14}


def cases():
    import numpy as np
    from steerkit import oracle
    from steerkit.families import sweep, werner_state
    from steerkit.measurements import all_pairs_strategy

    mub3 = oracle.mub_qubit_measurements(3)
    phen = oracle.phenomenon_from_state(werner_state(0.9), all_pairs_strategy(mub3, mub3))
    grid = oracle.hidden_state_grid(2, 800)
    cli_argv = ["sweep", "--criterion", "product-spin", "--family", "werner",
                "--param", "mu", "--grid", "0:1:2000"]
    return {
        "library-sweep": lambda: sweep("product-spin", "werner", "mu", np.linspace(0, 1, 1000)),
        "cli-sweep": lambda: run_cli(cli_argv),
        "lhs-feasible": lambda: oracle.lhs_feasible(phen, grid),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    for name, fn in cases().items():
        fn()
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        q1, med, q3 = statistics.quantiles(times, n=4)
        within = min(times) <= QUOTED_S[name] <= max(times)
        print(f"{name:14s} median {med:.3f} s  quartiles {q1:.3f}..{q3:.3f}  range {min(times):.3f}..{max(times):.3f}"
              f"  quoted {QUOTED_S[name]:.2f} s  {'within range' if within else 'outside range'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
