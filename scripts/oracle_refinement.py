#!/usr/bin/env python3
"""Grid-refinement experiment for the hidden-state LP oracle.

For the Werner family probed with two mutually unbiased qubit measurements,
bisects the feasibility flip at several grid resolutions. The grid LP is an
inner approximation of the hidden-state set, so the flip climbs toward the
two-measurement limit 1/sqrt(2) as the grid refines.

The table on stdout is the same on every run; the wall-clock seconds of
each resolution go to stderr.
"""

import argparse
import math
import sys
import time

from steerkit.families import feasibility_flip, werner_state
from steerkit.measurements import all_pairs_strategy
from steerkit.oracle import mub_qubit_measurements, phenomenon_from_state, qubit_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolutions", type=int, nargs="+", default=[50, 200, 800])
    parser.add_argument("--tol", type=float, default=1e-3)
    args = parser.parse_args()

    measurements = mub_qubit_measurements(2)
    strategy = all_pairs_strategy(measurements, measurements)

    def phenomenon(mu: float):
        return phenomenon_from_state(werner_state(mu), strategy)

    limit = 1 / math.sqrt(2)
    print(f"{'grid':<8} {'flip mu':<12} limit - flip")
    for resolution in args.resolutions:
        start = time.perf_counter()
        flip = feasibility_flip(phenomenon, qubit_grid(resolution), tol=args.tol)
        elapsed = time.perf_counter() - start
        print(f"{resolution:<8} {flip:<12.6f} {limit - flip:.6f}")
        print(f"grid {resolution}: {elapsed:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
