"""The four benchmark workloads: seeded inputs, one op runner, independent checks.

Each workload is a closed-loop client that issues ops in cycles. A cycle has
a fixed composition (which criteria, bases, grids or sizes); the seed only
draws the continuous inputs (parameter ranges, brackets, mean photon numbers,
mixing weights, directions), so every seed exercises the same mix of work.

Checks never call steerkit: every reference is a closed form or a direct
numpy computation written here. `check(op, output, corrupt=True)` swaps in a
deliberately wrong reference; a sound check must then report a failure.

This module imports only the standard library at load time, so that the
set-up time of a fresh interpreter is spent in steerkit's own imports.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# Golden-ratio step of the Weyl sequences that spread seeded draws evenly.
PHI = (math.sqrt(5.0) - 1.0) / 2.0
VALUE_TOL = 1e-9
THRESHOLD_TOL = 1e-8
# steerkit counts a verdict as violated only beyond this margin; nearer the
# threshold than this, a verdict is not checked.
VERDICT_GUARD = 1e-9
NO_FLIP_MESSAGE = "same verdict at both bracket endpoints"


@dataclass(frozen=True)
class Check:
    ok: bool
    err: float = 0.0
    decided: bool = True


FAILED = Check(ok=False, decided=False)


def weyl(u: float, k: int) -> float:
    """k-th point of the golden-ratio sequence started at u, in [0, 1)."""
    return (u + k * PHI) % 1.0


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run `steerkit.cli.main(argv)` in-process with stdout and stderr captured."""
    from steerkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


# Werner state μ·singlet + (1-μ)·I/4 seen through spin-1/2 same-axis
# measurements: every spin criterion is fixed by these three quantities.
def werner_min_inference_variance(mu: float) -> float:
    return (1.0 - mu * mu) / 4.0


def werner_inferred_abs_mean(mu: float) -> float:
    return mu / 2.0


def werner_correlation(mu: float) -> float:
    return -mu / 4.0


BELOW, ABOVE = "below", "above"
# criterion -> (lhs(μ), bound(μ), violated-if direction)
SPIN_CLOSED_FORMS = {
    "product-spin": (werner_min_inference_variance, lambda mu: werner_inferred_abs_mean(mu) / 2, BELOW),
    "bowen": (werner_min_inference_variance, lambda mu: 0.0, BELOW),
    "sum-two": (lambda mu: 2 * werner_min_inference_variance(mu), werner_inferred_abs_mean, BELOW),
    "sum-three-spin": (lambda mu: 3 * werner_min_inference_variance(mu), lambda mu: 0.5, BELOW),
    "collective-spin-sum": (lambda mu: 3 * werner_min_inference_variance(mu), lambda mu: 0.5, BELOW),
    "linear-2": (lambda mu: abs(2 * werner_correlation(mu)), lambda mu: math.sqrt(2) / 4, ABOVE),
    "linear-3": (lambda mu: abs(3 * werner_correlation(mu)), lambda mu: math.sqrt(3) / 4, ABOVE),
}

WERNER_THRESHOLDS = {
    "product-spin": (math.sqrt(5.0) - 1.0) / 2.0,
    "sum-three-spin": 1.0 / math.sqrt(3.0),
    "linear-2": 1.0 / math.sqrt(2.0),
    "linear-3": 1.0 / math.sqrt(3.0),
}

# Symmetric two-mode Gaussian family: μ at which each criterion starts to be
# violated, as a function of the mean photon number.
GAUSSIAN_THRESHOLDS = {
    "duan-simon": lambda n: math.sqrt(n / (1.0 + n)),
    "reid-cv": lambda n: math.sqrt((1.0 + 2.0 * n) / (2.0 * (1.0 + n))),
    "collective-cv-sum": lambda n: (1.0 + 4.0 * n) / (4.0 * math.sqrt(n * (1.0 + n))),
}

ORACLE_THRESHOLDS = {"mub2": 1.0 / math.sqrt(2.0), "mub3": 1.0 / math.sqrt(3.0)}


class SpinSweep:
    """`steerkit sweep` of the seven distinct spin criteria on Werner states.

    linear-spin-j is left out: on qubits it is linear-3 under another name.
    """

    name = "spin-sweep"
    points = 40
    trace_cycles = 3

    def cycle(self, rng: random.Random, index: int) -> list[dict]:
        ops = []
        for criterion in SPIN_CLOSED_FORMS:
            for fmt in ("csv", "json"):
                lo = rng.uniform(0.0, 0.6)
                hi = lo + rng.uniform(0.2, 0.4)
                ops.append({"criterion": criterion, "fmt": fmt, "lo": lo, "hi": hi})
        return ops

    def run(self, op: dict, ctx: "Context"):
        grid = f"{op['lo']!r}:{op['hi']!r}:{self.points}"
        return run_cli([
            "sweep", "--criterion", op["criterion"], "--family", "werner",
            "--param", "mu", "--grid", grid, "--format", op["fmt"],
        ])

    def check(self, op: dict, output, corrupt: bool = False) -> Check:
        rc, out, _ = output
        if rc != 0:
            return FAILED
        if op["fmt"] == "json":
            rows = [
                (r["parameter"], r["lhs"], r["bound"], r["margin"], r["violated"])
                for r in json.loads(out)
            ]
        else:
            lines = out.strip().splitlines()
            if lines[0] != "parameter,lhs,bound,margin,violated":
                return FAILED
            rows = []
            for line in lines[1:]:
                p, lhs, bound, margin, violated = line.split(",")
                rows.append((float(p), float(lhs), float(bound), float(margin), violated == "true"))
        if len(rows) != self.points:
            return FAILED
        lhs_of, bound_of, direction = SPIN_CLOSED_FORMS[op["criterion"]]
        shift = 1e-3 if corrupt else 0.0
        step = (op["hi"] - op["lo"]) / (self.points - 1)
        err = 0.0
        for k, (mu, lhs, bound, margin, violated) in enumerate(rows):
            ref_lhs, ref_bound = lhs_of(mu) + shift, bound_of(mu)
            ref_margin = ref_bound - ref_lhs if direction == BELOW else ref_lhs - ref_bound
            err = max(err, abs(mu - (op["lo"] + k * step)), abs(lhs - ref_lhs),
                      abs(bound - ref_bound), abs(margin - ref_margin))
            if abs(ref_margin) > VERDICT_GUARD and violated != (ref_margin > 0):
                return Check(ok=False, err=err)
        return Check(ok=err <= VALUE_TOL, err=err)


class Thresholds:
    """`steerkit boundary` at tol 1e-9: four Werner thresholds, three Gaussian ones."""

    name = "thresholds"
    tol = "1e-9"
    trace_cycles = 10

    def cycle(self, rng: random.Random, index: int) -> list[dict]:
        ops = []
        # Each Werner threshold twice: with 8 Werner ops (linear ones cheaper)
        # and 3 Gaussian ops per cycle, the median and 90th-percentile op fall
        # inside a cost class rather than on the edge between two classes,
        # where machine-speed drift would move them most.
        for criterion, threshold in [*WERNER_THRESHOLDS.items()] * 2:
            lo = threshold - rng.uniform(0.05, 0.25)
            hi = threshold + rng.uniform(0.05, 0.25)
            ops.append({"criterion": criterion, "lo": lo, "hi": min(hi, 1.0)})
        if index == 0:
            self.nbar_offset = rng.random()
        for k, criterion in enumerate(GAUSSIAN_THRESHOLDS):
            # log-uniform in [0.03, 3]; about 31% fall below 1/8, where the
            # collective boundary lies above μ = 1 and cannot be reached.
            u = weyl(self.nbar_offset, 3 * index + k)
            ops.append({"criterion": criterion, "nbar": 0.03 * 100.0**u})
        return ops

    def run(self, op: dict, ctx: "Context"):
        if "nbar" in op:
            family = ["--family", "symmetric-gaussian", "--nbar", repr(op["nbar"])]
            bracket = []
        else:
            family = ["--family", "werner"]
            bracket = ["--bracket", f"{op['lo']!r}:{op['hi']!r}"]
        return run_cli([
            "boundary", "--criterion", op["criterion"], *family,
            "--param", "mu", *bracket, "--tol", self.tol,
        ])

    def reference(self, op: dict) -> float:
        if "nbar" in op:
            return GAUSSIAN_THRESHOLDS[op["criterion"]](op["nbar"])
        return WERNER_THRESHOLDS[op["criterion"]]

    def check(self, op: dict, output, corrupt: bool = False) -> Check:
        rc, out, err_text = output
        ref = self.reference(op)
        if ref > 1.0:
            if corrupt:
                ref = 0.5
            else:
                no_flip = rc == 1 and NO_FLIP_MESSAGE in err_text
                return Check(ok=no_flip or (rc == 0 and "unreachable" in out.lower()))
        if rc != 0:
            return FAILED
        if corrupt:
            ref += 1e-6
        err = abs(json.loads(out)["threshold"] - ref)
        return Check(ok=err <= THRESHOLD_TOL, err=err)


class OracleCertify:
    """`steerkit oracle --certify` on Werner states near the mub2/mub3 thresholds."""

    name = "oracle-certify"
    window = 0.02
    trace_cycles = 8
    # Cheap configs twice: ordered by cost (mub2/200 < mub3/200 < mub2/800 <
    # mub3/800), the median op then lies mid-class in mub3/200 instead of on
    # the edge between mub3/200 and mub2/800.
    configs = (
        ("mub2", 200), ("mub2", 200), ("mub3", 200), ("mub3", 200), ("mub2", 800), ("mub3", 800),
    )

    def cycle(self, rng: random.Random, index: int) -> list[dict]:
        if index == 0:
            self.offsets = [rng.random() for _ in self.configs]
        ops = []
        for (basis, grid), offset in zip(self.configs, self.offsets):
            # μ spread evenly over the window around the exact threshold,
            # which holds feasible, undecided and certified outcomes; one
            # sequence per position in the cycle.
            u = weyl(offset, index)
            mu = ORACLE_THRESHOLDS[basis] + self.window * (2.0 * u - 1.0)
            ops.append({"basis": basis, "grid": grid, "mu": mu})
        return ops

    def run(self, op: dict, ctx: "Context"):
        cert = ctx.new_path("cert.json")
        rc, out, err = run_cli([
            "oracle", "--family", "werner", "--mu", repr(op["mu"]),
            "--measurements", op["basis"], "--grid", str(op["grid"]),
            "--certify", "--certificate-out", str(cert),
        ])
        return rc, out, err, cert

    def check(self, op: dict, output, corrupt: bool = False) -> Check:
        rc, out, _, cert = output
        if rc != 0:
            return FAILED
        lines = out.strip().splitlines()
        verdict = lines[0]
        fields = dict(line.split("=", 1) for line in lines[1:])
        if fields.get("grid") != str(op["grid"]):
            return FAILED
        threshold = ORACLE_THRESHOLDS[op["basis"]]
        if corrupt:
            threshold += -1.0 if verdict == "feasible" else 1.0
        mu = op["mu"]
        if verdict == "feasible":
            return Check(ok=mu <= threshold and not cert.exists())
        if verdict not in ("certified-steering", "grid-infeasible"):
            return FAILED
        certified = verdict == "certified-steering"
        if (certified and not mu > threshold) or not cert.exists():
            return FAILED
        record = json.loads(cert.read_text())
        reported = (float(fields["observed_value"]), float(fields["lhs_bound"]))
        err, consistent = check_certificate(record, mu + (1e-3 if corrupt else 0.0), reported, certified)
        return Check(ok=consistent and err <= VALUE_TOL, err=err, decided=certified)


def check_certificate(record: dict, mu: float, reported: tuple[float, float], certified: bool) -> tuple[float, bool]:
    """Re-derive a qubit-MUB certificate record from Werner closed forms.

    Probabilities must equal (1 - μ·s·t·[same axis])/4 for outcome signs s, t;
    the observed value is Σ f·P, and the exact hidden-state bound is the
    maximum over Alice strategies of α + |β| for the aggregated Bob operator
    α·I + β·σ. Returns the largest deviation and whether the verdicts agree.
    """
    axes = {"Jx": 0, "Jy": 1, "Jz": 2}
    observed = 0.0
    err = 0.0
    settings: dict[int, int] = {}
    for entry in record["functional"]:
        same = entry["alice_label"] == entry["bob_label"]
        for s_val, coeff_row, prob_row in zip(entry["alice_values"], entry["coefficients"], entry["probabilities"]):
            for t_val, coeff, prob in zip(entry["bob_values"], coeff_row, prob_row):
                ref = (1.0 - mu * (2 * s_val) * (2 * t_val) * same) / 4.0
                err = max(err, abs(prob - ref))
                observed += coeff * prob
        settings[entry["alice_index"]] = len(entry["alice_values"])
    bound = -math.inf
    indices = sorted(settings)
    for strategy in itertools.product(*(range(settings[i]) for i in indices)):
        choice = dict(zip(indices, strategy))
        alpha, beta = 0.0, [0.0, 0.0, 0.0]
        for entry in record["functional"]:
            row = entry["coefficients"][choice[entry["alice_index"]]]
            for t_val, coeff in zip(entry["bob_values"], row):
                alpha += coeff / 2.0
                beta[axes[entry["bob_label"]]] += coeff * t_val
        bound = max(bound, alpha + math.sqrt(sum(b * b for b in beta)))
    err = max(err, abs(observed - record["observed_value"]), abs(observed - reported[0]),
              abs(bound - record["lhs_bound"]), abs(bound - reported[1]))
    verdict = "certified-steering" if certified else "not-certified"
    agrees = record["verdict"] == verdict and certified == (observed > bound + record["certify_margin"])
    return err, agrees


class ExactBound:
    """Library `certify_steering` of the n-direction linear steering functional.

    S pairs each of n seeded qubit spin directions with itself; the exact
    bound enumerates 2^n deterministic strategies.
    """

    name = "exact-bound"
    sizes = (12, 13, 14, 15, 16)
    trace_cycles = 1

    def cycle(self, rng: random.Random, index: int) -> list[dict]:
        ops = []
        for n in self.sizes:
            dirs = []
            for _ in range(n):
                v = [rng.gauss(0.0, 1.0) for _ in range(3)]
                norm = math.sqrt(sum(x * x for x in v))
                dirs.append([x / norm for x in v])
            ops.append({"n": n, "mu": rng.uniform(0.4, 1.0), "dirs": dirs})
        return ops

    def run(self, op: dict, ctx: "Context"):
        from steerkit.core import spin_operators
        from steerkit.families import werner_state
        from steerkit.measurements import MeasurementStrategy, observable_to_measurement
        from steerkit.oracle import certify_steering, linear_correlation_functional, phenomenon_from_state

        spin = spin_operators(0.5)
        measurements = tuple(
            observable_to_measurement(x * spin.jx + y * spin.jy + z * spin.jz, f"n{i}")
            for i, (x, y, z) in enumerate(op["dirs"])
        )
        strategy = MeasurementStrategy(
            alice=measurements, bob=measurements, pairing=tuple((i, i) for i in range(op["n"]))
        )
        phenomenon = phenomenon_from_state(werner_state(op["mu"]), strategy)
        cert = certify_steering(phenomenon, linear_correlation_functional(strategy))
        return cert.observed_value, cert.lhs_bound, cert.certified

    def check(self, op: dict, output, corrupt: bool = False) -> Check:
        import numpy as np

        observed, bound, certified = output
        dirs = np.asarray(op["dirs"])
        n = op["n"]
        # max over sign vectors s of |Σ s_i n_i| / 4; s_0 = +1 by symmetry.
        k = np.arange(2 ** (n - 1))[:, None]
        signs = 1 - 2 * ((k >> np.arange(n - 1)) & 1)
        ref_bound = float(np.max(np.linalg.norm(dirs[0] + signs @ dirs[1:], axis=1))) / 4.0
        ref_bound += 1e-6 if corrupt else 0.0
        ref_observed = n * op["mu"] / 4.0
        err = max(abs(bound - ref_bound), abs(observed - ref_observed))
        ok = err <= VALUE_TOL
        if abs(ref_observed - ref_bound) > VERDICT_GUARD + 1e-9:
            ok = ok and certified == (ref_observed > ref_bound)
        return Check(ok=ok, err=err)


WORKLOADS = {w.name: w for w in (SpinSweep, Thresholds, OracleCertify, ExactBound)}


class Context:
    """Scratch directory for files an op writes, inside the benchmark's tree."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0
        root.mkdir(parents=True, exist_ok=True)

    def new_path(self, name: str) -> Path:
        self.count += 1
        return self.root / f"{self.count}-{name}"

    def cleanup(self) -> None:
        for path in self.root.iterdir():
            path.unlink()
        self.root.rmdir()


def schedule(workload, seed: int):
    """Yield the workload's cycles of ops, drawn from `seed`, forever."""
    rng = random.Random(seed)
    index = 0
    while True:
        yield workload.cycle(rng, index)
        index += 1
