#!/usr/bin/env python3
"""Emit the three boundary curves of the symmetric two-mode Gaussian family.

For each mean photon number the script writes the entanglement, conditional-
variance steering, and fixed-gain collective steering boundaries (closed
forms), and optionally cross-checks each against a bisected verdict flip.
A boundary at or above mu = 1 (the collective one, for nbar < 1/8) is never
crossed within the family; the check skips it and counts it as unreachable.
"""

import argparse
import sys

import numpy as np

from steerkit.families import boundary_bisect
from steerkit.gaussian import (
    boundary_collective_steering_mu,
    boundary_entanglement_mu,
    boundary_reid_steering_mu,
)

BISECTED = [
    ("duan-simon", boundary_entanglement_mu),
    ("reid-cv", boundary_reid_steering_mu),
    ("collective-cv-sum", boundary_collective_steering_mu),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nbar-min", type=float, default=0.1)
    parser.add_argument("--nbar-max", type=float, default=10.0)
    parser.add_argument("--points", type=int, default=50)
    parser.add_argument("--check", action="store_true", help="cross-check each point by bisection")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    lines = ["nbar,entanglement_mu,reid_mu,collective_mu"]
    worst = 0.0
    unreachable = 0
    for nbar in np.linspace(args.nbar_min, args.nbar_max, args.points):
        nbar = float(nbar)
        values = [fn(nbar) for _, fn in BISECTED]
        lines.append(f"{nbar:.10g},{values[0]:.12g},{values[1]:.12g},{values[2]:.12g}")
        if args.check:
            for (criterion_id, fn), value in zip(BISECTED, values):
                if value >= 1.0:
                    unreachable += 1
                    continue
                flip = boundary_bisect(
                    criterion_id, "symmetric-gaussian", "mu", tol=1e-9, fixed={"nbar": nbar}
                ).threshold
                worst = max(worst, abs(flip - value))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.check:
        print(f"# max |bisected - closed form| = {worst:.3e}", file=sys.stderr)
        print(f"# unreachable boundaries (mu >= 1), not bisected: {unreachable}", file=sys.stderr)


if __name__ == "__main__":
    main()
