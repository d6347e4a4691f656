"""Show that the deterministic per-layer counts repeat exactly for one seed.

Usage (from the repository root):
  python3 bench/check_counts.py --seed 1 [--workload spin-sweep ...]

Runs the traced benchmark twice per workload and compares every count in
spans.DETERMINISTIC. Exits 1 if any count differs between the two runs or
is missing. Only these counts may carry a count-based claim.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from spans import DETERMINISTIC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics.get(name, {}).get("value") for name in DETERMINISTIC}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        for name in DETERMINISTIC:
            same = first[name] is not None and first[name] == second[name]
            ok &= same
            print(f"{workload:15s} {name:45s} {first[name]!s:>12} {second[name]!s:>12} {'same' if same else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
