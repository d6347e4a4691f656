"""Command-line front end.

Commands: `criteria list`, `eval`, `sweep`, `boundary`, `oracle`,
`figure cv-bounds`. Violation status is data, never an exit code, so sweeps
over mixed verdicts compose in shell pipelines. Exit codes: 0 = ran,
1 = runtime/solver error, 2 = usage error. Identical configurations produce
byte-identical output (fixed ordering, 17-significant-digit floats, no
timestamps).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .criteria import CATALOG, evaluate
from .families import FAMILIES, boundary_bisect, make_state, sweep
from .gaussian import (
    boundary_collective_steering_mu,
    boundary_entanglement_mu,
    boundary_reid_steering_mu,
)
from .measurements import Measurement, all_pairs_strategy

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2


class UsageError(Exception):
    """Bad ids, ranges or flag combinations: reported with exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_table(args: argparse.Namespace, json_obj, rows: list[dict]) -> None:
    """Write `json_obj` as JSON, or `rows` as CSV headed by their keys, per `--format`.

    CSV cells are `true`/`false` for bools, 17 significant digits for floats
    and `str` for anything else.
    """
    if args.format == "json":
        _emit(json.dumps(json_obj, indent=2) + "\n", args.out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow(
            ("true" if value else "false") if isinstance(value, bool)
            else _fmt(value) if isinstance(value, float)
            else str(value)
            for value in row.values()
        )
    _emit(buf.getvalue(), args.out)


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"cannot parse grid {spec!r}: {exc}") from None
    if count < 1:
        raise UsageError(f"grid must contain at least one point, got count {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"grid endpoints must be finite, got {spec!r}")
    return [float(v) for v in np.linspace(lo, hi, count)]


def _parse_bracket(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise UsageError(f"bracket must be lo:hi, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"cannot parse bracket {spec!r}: {exc}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"bracket endpoints must be finite, got {spec!r}")
    if not lo < hi:
        raise UsageError(f"bracket lo must be below hi, got {spec!r}")
    return lo, hi


def _check_swept_range(args: argparse.Namespace, flag: str, spec: str, values) -> None:
    """Require every value of `--grid` or `--bracket` inside the swept parameter's family range."""
    lo, hi = FAMILIES[args.family].parameter_ranges[args.param]
    if min(values) < lo or max(values) > hi:
        raise UsageError(f"{flag} {spec} outside range [{_fmt(lo)}, {_fmt(hi)}] of parameter {args.param!r}")


def _family_params(args: argparse.Namespace, skip: str | None = None) -> dict[str, float]:
    """Collect and range-check the family parameters supplied as flags."""
    family = args.family
    ranges = FAMILIES[family].parameter_ranges
    params: dict[str, float] = {}
    for name in ("mu", "nbar"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in ranges:
            raise UsageError(f"family {family!r} has no parameter {name!r}")
        if name == skip:
            raise UsageError(f"--{name} conflicts with sweeping parameter {name!r}")
        lo, hi = ranges[name]
        if not lo <= value <= hi:
            raise UsageError(f"parameter {name}={value} outside range [{_fmt(lo)}, {_fmt(hi)}]")
        if not math.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value}")
        params[name] = float(value)
    for name in ranges:
        if name != skip and name not in params:
            raise UsageError(f"family {family!r} requires --{name}")
    return params


def _criterion_params(args: argparse.Namespace, swept: str | None) -> dict[str, float]:
    """Check `--criterion` and `--gain-mode` against the family, then return its fixed parameters.

    `swept` names the parameter that `sweep` or `boundary` varies; it must
    belong to the family and must not also be set as a flag.
    """
    criterion_id, family = args.criterion, args.family
    if criterion_id not in CATALOG:
        raise UsageError(f"unknown criterion {criterion_id!r}")
    info = CATALOG[criterion_id]
    if info.evaluator is None:
        raise UsageError(f"{criterion_id} needs explicit convex terms; use the library API")
    if info.kind != FAMILIES[family].kind:
        raise UsageError(f"criterion {criterion_id!r} is not applicable to family {family!r}")
    if args.gain_mode is not None and info.gain_mode is None:
        raise UsageError(f"--gain-mode applies only to the collective criteria, not to {criterion_id!r}")
    if swept is not None and swept not in FAMILIES[family].parameter_ranges:
        raise UsageError(f"family {family!r} has no parameter {swept!r}")
    return _family_params(args, skip=swept)


def cmd_list(args: argparse.Namespace) -> int:
    rows = [
        {
            "criterion_id": info.criterion_id,
            "kind": info.kind,
            "direction": info.direction,
            "lhs": info.lhs_desc,
            "bound": info.bound_desc,
            "note": info.note,
        }
        for info in CATALOG.values()
    ]
    _emit_table(args, rows, rows)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    params = _criterion_params(args, swept=None)
    state = make_state(args.family, **params)
    result = evaluate(args.criterion, state, gain_mode=args.gain_mode)
    verdict = {
        "criterion_id": result.criterion_id,
        "lhs_value": result.lhs_value,
        "bound": result.bound,
        "direction": result.direction,
        "margin": result.margin,
        "violated": result.violated,
    }
    details = {key: result.details[key] for key in sorted(result.details)}
    record = {
        **verdict,
        "family": args.family,
        "parameters": dict(sorted(params.items())),
        "details": details,
    }
    row = {**verdict, **{f"detail.{key}": value for key, value in details.items()}}
    if args.tag is not None:
        record["tag"] = row["tag"] = args.tag
    _emit_table(args, record, [row])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _criterion_params(args, swept=args.param)
    grid_values = _parse_grid(args.grid)
    _check_swept_range(args, "grid", args.grid, grid_values)
    points = sweep(
        args.criterion, args.family, args.param, grid_values, fixed=params, gain_mode=args.gain_mode
    )
    rows = [
        {"parameter": r.parameter, "lhs": r.lhs, "bound": r.bound, "margin": r.margin, "violated": r.violated}
        for r in points
    ]
    _emit_table(args, rows, rows)
    return EXIT_OK


def cmd_boundary(args: argparse.Namespace) -> int:
    params = _criterion_params(args, swept=args.param)
    bracket = _parse_bracket(args.bracket) if args.bracket is not None else None
    if bracket is None and not all(map(math.isfinite, FAMILIES[args.family].parameter_ranges[args.param])):
        raise UsageError(f"parameter {args.param!r} has an unbounded range, so --bracket is required")
    if args.tol <= 0:
        raise UsageError(f"--tol must be positive, got {args.tol}")
    if not math.isfinite(args.tol):
        raise UsageError(f"--tol must be finite, got {args.tol}")
    if bracket is not None:
        _check_swept_range(args, "bracket", args.bracket, bracket)
    result = boundary_bisect(
        args.criterion,
        args.family,
        args.param,
        bracket=bracket,
        tol=args.tol,
        fixed=params,
        gain_mode=args.gain_mode,
    )
    record = {
        "criterion_id": result.criterion_id,
        "family": result.family_id,
        "param": result.param,
        "fixed": dict(sorted(result.fixed.items())),
        "threshold": result.threshold,
        "bracket_lo": result.bracket[0],
        "bracket_hi": result.bracket[1],
        "tolerance": result.tolerance,
        "evaluations": result.evaluations,
    }
    row = {key: value for key, value in record.items() if key != "fixed"}
    row.update((f"fixed.{name}", value) for name, value in record["fixed"].items())
    _emit_table(args, record, [row])
    return EXIT_OK


def read_measurement_file(path: str) -> tuple[Measurement, ...]:
    """Parse the plain-text measurement format.

    Blocks start with "measurement <label>", then per outcome a line
    "outcome <value>" followed by the effect matrix, one row per line as
    whitespace-separated "re im" pairs. Lines starting with '#' are comments.
    File-loaded measurements are treated as POVMs.
    """
    measurements: list[Measurement] = []
    label: str | None = None
    label_line = 0
    values: list[float] = []
    effects: list[np.ndarray] = []
    rows: list[list[complex]] = []

    def number(text: str, lineno: int) -> float:
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse number {text.strip()!r}") from None

    def close_effect() -> None:
        if not rows:
            if values:
                raise ValueError(f"outcome {values[-1]} of {label!r} has no effect matrix")
            return
        matrix = np.array(rows, dtype=complex)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"effect matrix of {label!r} is not square: {matrix.shape}")
        effects.append(matrix)
        rows.clear()

    def close_measurement() -> None:
        nonlocal label
        close_effect()
        if label is not None:
            if not values:
                raise ValueError(f"line {label_line}: measurement {label!r} has no outcome lines")
            measurements.append(
                Measurement(label=label, values=tuple(values), effects=tuple(effects), kind="povm")
            )
        label = None
        values.clear()
        effects.clear()

    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("measurement"):
            close_measurement()
            label = line[len("measurement") :].strip()
            label_line = lineno
            if not label:
                raise ValueError(f"line {lineno}: measurement needs a label")
        elif line.startswith("outcome"):
            if label is None:
                raise ValueError(f"line {lineno}: outcome before the first measurement line")
            close_effect()
            values.append(number(line[len("outcome") :], lineno))
        else:
            if not values:
                raise ValueError(f"line {lineno}: matrix row before the first outcome line")
            fields = line.split()
            if len(fields) % 2 != 0:
                raise ValueError(f"line {lineno}: expected re/im pairs, got {len(fields)} numbers")
            row = [
                complex(number(fields[i], lineno), number(fields[i + 1], lineno))
                for i in range(0, len(fields), 2)
            ]
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"line {lineno}: effect row of {label!r} has {len(row)} entries, "
                    f"the rows above have {len(rows[0])}"
                )
            rows.append(row)
    close_measurement()
    if not measurements:
        raise ValueError(f"no measurements found in {path}")
    return tuple(measurements)


def cmd_oracle(args: argparse.Namespace) -> int:
    params = _family_params(args)
    if args.grid < 1:
        raise UsageError(f"--grid must be >= 1, got {args.grid}")
    if FAMILIES[args.family].kind != "spin":
        raise UsageError(f"oracle needs a finite-dimensional family, not {args.family!r}")
    state = make_state(args.family, **params)
    if args.measurements in ("mub2", "mub3"):
        if state.dim_a != 2 or state.dim_b != 2:
            raise UsageError("mub2/mub3 presets need qubit subsystems")
        measurements = oracle_mod.mub_qubit_measurements(int(args.measurements[-1]))
    else:
        measurements = read_measurement_file(args.measurements)
        for meas in measurements:
            if meas.dim != state.dim_a or meas.dim != state.dim_b:
                raise UsageError(
                    f"measurement file {args.measurements!r} has dimension {meas.dim} "
                    f"(measurement {meas.label!r}), but family {args.family!r} has "
                    f"subsystem dimensions {state.dim_a} and {state.dim_b}"
                )
    strategy = all_pairs_strategy(measurements, measurements)
    phen = oracle_mod.phenomenon_from_state(state, strategy)
    grid = oracle_mod.hidden_state_grid(state.dim_b, args.grid)

    outcome = oracle_mod.lhs_feasible(phen, grid)
    lines: list[str] = []
    if outcome.feasible:
        lines.append("feasible")
        lines.append(f"residual={_fmt(outcome.residual)}")
    elif not args.certify:
        lines.append("grid-infeasible")
        lines.append(f"violation={_fmt(outcome.violation)}")
    else:
        functional = oracle_mod.functional_from_dual(phen, grid, outcome)
        certificate = oracle_mod.certify_steering(phen, functional)
        lines.append("certified-steering" if certificate.certified else "grid-infeasible")
        lines.append(f"violation={_fmt(outcome.violation)}")
        lines.append(f"observed_value={_fmt(certificate.observed_value)}")
        lines.append(f"lhs_bound={_fmt(certificate.lhs_bound)}")
        if args.certificate_out is not None:
            record = oracle_mod.certificate_record(phen, functional, certificate, args.tag)
            Path(args.certificate_out).write_text(json.dumps(record, indent=2) + "\n")
    lines.append(f"grid={args.grid}")
    if args.tag is not None:
        lines.append(f"tag={args.tag}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_figure_cv_bounds(args: argparse.Namespace) -> int:
    rows = []
    for nbar in _parse_grid(args.nbar_grid):
        if nbar <= 0:
            raise UsageError(f"nbar grid must be strictly positive, got {_fmt(nbar)}")
        rows.append(
            {
                "nbar": nbar,
                "entanglement_mu": boundary_entanglement_mu(nbar),
                "reid_mu": boundary_reid_steering_mu(nbar),
                "collective_mu": boundary_collective_steering_mu(nbar),
            }
        )
    _emit_table(args, rows, rows)
    unreachable = sum(row["collective_mu"] >= 1.0 for row in rows)
    if unreachable:
        print(
            f"steerkit: note: collective boundary unreachable (mu >= 1) at {unreachable} "
            f"of {len(rows)} nbar points",
            file=sys.stderr,
        )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per interpreter and shared, so callers must not modify it.

    Each `parse_args` call returns a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="Evaluate steering criteria, sweep state families, and run the hidden-state oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, default: str) -> None:
        p.add_argument("--format", choices=("csv", "json"), default=default)
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    def add_family(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True, choices=sorted(FAMILIES))
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--nbar", type=float, default=None)

    criteria_p = sub.add_parser("criteria", help="criterion catalog")
    criteria_sub = criteria_p.add_subparsers(dest="subcommand", required=True)
    list_p = criteria_sub.add_parser("list", help="list the criterion catalog")
    add_format(list_p, "csv")
    list_p.set_defaults(run=cmd_list)

    eval_p = sub.add_parser("eval", help="evaluate one criterion on one state")
    eval_p.add_argument("--criterion", required=True)
    add_family(eval_p)
    eval_p.add_argument("--tag", default=None, help="free-text metadata echoed into the output")
    eval_p.add_argument("--gain-mode", choices=("fixed", "optimize"), default=None)
    add_format(eval_p, "json")
    eval_p.set_defaults(run=cmd_eval)

    sweep_p = sub.add_parser("sweep", help="evaluate a criterion across a parameter grid")
    sweep_p.add_argument("--criterion", required=True)
    add_family(sweep_p)
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--grid", required=True, help="lo:hi:count")
    sweep_p.add_argument("--gain-mode", choices=("fixed", "optimize"), default=None)
    add_format(sweep_p, "csv")
    sweep_p.set_defaults(run=cmd_sweep)

    boundary_p = sub.add_parser("boundary", help="bisect a criterion's verdict flip")
    boundary_p.add_argument("--criterion", required=True)
    add_family(boundary_p)
    boundary_p.add_argument("--param", required=True)
    boundary_p.add_argument("--bracket", default=None, help="lo:hi (defaults to the family range)")
    boundary_p.add_argument("--tol", type=float, default=1e-9)
    boundary_p.add_argument("--gain-mode", choices=("fixed", "optimize"), default=None)
    add_format(boundary_p, "json")
    boundary_p.set_defaults(run=cmd_boundary)

    oracle_p = sub.add_parser("oracle", help="hidden-state LP oracle with optional certification")
    add_family(oracle_p)
    oracle_p.add_argument("--tag", default=None, help="free-text metadata echoed into the output")
    oracle_p.add_argument("--measurements", required=True, help="mub2, mub3, or a measurement file")
    oracle_p.add_argument("--grid", type=int, required=True, help="hidden-state grid resolution")
    oracle_p.add_argument("--certify", action="store_true")
    oracle_p.add_argument("--certificate-out", default=None)
    oracle_p.add_argument("--out", default=None)
    oracle_p.set_defaults(run=cmd_oracle)

    figure_p = sub.add_parser("figure", help="emit curve data")
    figure_sub = figure_p.add_subparsers(dest="subcommand", required=True)
    cv_p = figure_sub.add_parser("cv-bounds", help="boundary curves for the symmetric two-mode family")
    cv_p.add_argument("--nbar-grid", required=True, help="lo:hi:count")
    add_format(cv_p, "csv")
    cv_p.set_defaults(run=cmd_figure_cv_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"steerkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"steerkit: failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
