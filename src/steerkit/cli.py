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
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .criteria import CATALOG, CriterionResult, evaluate
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


@dataclass
class RunConfig:
    """Parsed run configuration; `tag` is free-text metadata echoed to outputs."""

    command: str
    criterion_id: str | None = None
    family: str | None = None
    params: dict[str, float] = field(default_factory=dict)
    param: str | None = None
    grid_values: list[float] = field(default_factory=list)
    bracket: tuple[float, float] | None = None
    tol: float = 1e-9
    fmt: str = "csv"
    out: str | None = None
    measurements: str | None = None
    oracle_grid: int = 0
    certify: bool = False
    certificate_out: str | None = None
    gain_mode: str | None = None
    tag: str | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


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
    return [float(v) for v in np.linspace(lo, hi, count)]


def _parse_bracket(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise UsageError(f"bracket must be lo:hi, got {spec!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"cannot parse bracket {spec!r}: {exc}") from None


def _family_params(args: argparse.Namespace, family: str, skip: str | None = None) -> dict[str, float]:
    """Collect and range-check the family parameters supplied as flags."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    ranges = FAMILIES[family].parameter_ranges
    params: dict[str, float] = {}
    for name in ("mu", "nbar"):
        value = getattr(args, name, None)
        if value is None:
            continue
        if name not in ranges:
            raise UsageError(f"family {family!r} has no parameter {name!r}")
        if name == skip:
            raise UsageError(f"--{name} conflicts with sweeping parameter {name!r}")
        lo, hi = ranges[name]
        if not lo <= value <= hi:
            raise UsageError(f"parameter {name}={value} outside range [{_fmt(lo)}, {_fmt(hi)}]")
        params[name] = float(value)
    for name in ranges:
        if name != skip and name not in params:
            raise UsageError(f"family {family!r} requires --{name}")
    return params


def _check_criterion(criterion_id: str, family: str) -> None:
    if criterion_id not in CATALOG:
        raise UsageError(f"unknown criterion {criterion_id!r}")
    info = CATALOG[criterion_id]
    if info.evaluator is None:
        raise UsageError(f"{criterion_id} needs explicit convex terms; use the library API")
    if info.kind != FAMILIES[family].kind:
        raise UsageError(f"criterion {criterion_id!r} is not applicable to family {family!r}")


def cmd_list(config: RunConfig) -> int:
    infos = list(CATALOG.values())
    if config.fmt == "json":
        records = [
            {
                "criterion_id": info.criterion_id,
                "kind": info.kind,
                "direction": info.direction,
                "lhs": info.lhs_desc,
                "bound": info.bound_desc,
                "note": info.note,
            }
            for info in infos
        ]
        _emit(_json_text(records), config.out)
    else:
        rows = [
            [info.criterion_id, info.kind, info.direction, info.lhs_desc, info.bound_desc, info.note]
            for info in infos
        ]
        _emit(_csv_table(["criterion_id", "kind", "direction", "lhs", "bound", "note"], rows), config.out)
    return EXIT_OK


def _result_record(result: CriterionResult, config: RunConfig) -> dict:
    record = {
        "criterion_id": result.criterion_id,
        "lhs_value": result.lhs_value,
        "bound": result.bound,
        "direction": result.direction,
        "margin": result.margin,
        "violated": result.violated,
        "family": config.family,
        "parameters": dict(sorted(config.params.items())),
        "details": {k: result.details[k] for k in sorted(result.details)},
    }
    if config.tag is not None:
        record["tag"] = config.tag
    return record


def cmd_eval(config: RunConfig) -> int:
    state = make_state(config.family, **config.params)
    result = evaluate(config.criterion_id, state, gain_mode=config.gain_mode)
    if config.fmt == "csv":
        header = ["criterion_id", "lhs_value", "bound", "direction", "margin", "violated"]
        row = [
            result.criterion_id,
            _fmt(result.lhs_value),
            _fmt(result.bound),
            result.direction,
            _fmt(result.margin),
            _bool(result.violated),
        ]
        for key in sorted(result.details):
            header.append(f"detail.{key}")
            value = result.details[key]
            row.append(_fmt(value) if isinstance(value, float) else str(value))
        _emit(_csv_table(header, [row]), config.out)
    else:
        _emit(_json_text(_result_record(result, config)), config.out)
    return EXIT_OK


def cmd_sweep(config: RunConfig) -> int:
    rows = sweep(
        config.criterion_id,
        config.family,
        config.param,
        config.grid_values,
        fixed=config.params,
        gain_mode=config.gain_mode,
    )
    if config.fmt == "json":
        records = [
            {
                "parameter": r.parameter,
                "lhs": r.lhs,
                "bound": r.bound,
                "margin": r.margin,
                "violated": r.violated,
            }
            for r in rows
        ]
        _emit(_json_text(records), config.out)
    else:
        table = [
            [_fmt(r.parameter), _fmt(r.lhs), _fmt(r.bound), _fmt(r.margin), _bool(r.violated)]
            for r in rows
        ]
        _emit(_csv_table(["parameter", "lhs", "bound", "margin", "violated"], table), config.out)
    return EXIT_OK


def cmd_boundary(config: RunConfig) -> int:
    result = boundary_bisect(
        config.criterion_id,
        config.family,
        config.param,
        bracket=config.bracket,
        tol=config.tol,
        fixed=config.params,
        gain_mode=config.gain_mode,
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
    if config.fmt == "csv":
        header = ["criterion_id", "family", "param", "threshold", "bracket_lo", "bracket_hi", "tolerance", "evaluations"]
        row = [
            result.criterion_id,
            result.family_id,
            result.param,
            _fmt(result.threshold),
            _fmt(result.bracket[0]),
            _fmt(result.bracket[1]),
            _fmt(result.tolerance),
            str(result.evaluations),
        ]
        for name in sorted(result.fixed):
            header.append(f"fixed.{name}")
            row.append(_fmt(result.fixed[name]))
        _emit(_csv_table(header, [row]), config.out)
    else:
        _emit(_json_text(record), config.out)
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
            if len(values) != len(effects):
                raise ValueError(f"measurement {label!r} has {len(values)} outcomes, {len(effects)} effects")
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


def write_measurement_file(path: str, measurements: tuple[Measurement, ...]) -> None:
    lines = []
    for meas in measurements:
        lines.append(f"measurement {meas.label}")
        for value, effect in zip(meas.values, meas.effects):
            lines.append(f"outcome {_fmt(value)}")
            for row in effect:
                lines.append(" ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_oracle(config: RunConfig) -> int:
    if config.oracle_grid < 1:
        raise UsageError(f"--grid must be >= 1, got {config.oracle_grid}")
    if FAMILIES[config.family].kind != "spin":
        raise UsageError(f"oracle needs a finite-dimensional family, not {config.family!r}")
    state = make_state(config.family, **config.params)
    if config.measurements in ("mub2", "mub3"):
        if state.dim_a != 2 or state.dim_b != 2:
            raise UsageError("mub2/mub3 presets need qubit subsystems")
        measurements = oracle_mod.mub_qubit_measurements(int(config.measurements[-1]))
    else:
        measurements = read_measurement_file(config.measurements)
        for meas in measurements:
            if meas.dim != state.dim_a or meas.dim != state.dim_b:
                raise UsageError(
                    f"measurement file {config.measurements!r} has dimension {meas.dim} "
                    f"(measurement {meas.label!r}), but family {config.family!r} has "
                    f"subsystem dimensions {state.dim_a} and {state.dim_b}"
                )
    strategy = all_pairs_strategy(measurements, measurements)
    phen = oracle_mod.phenomenon_from_state(state, strategy)
    grid = oracle_mod.hidden_state_grid(state.dim_b, config.oracle_grid)

    outcome = oracle_mod.lhs_feasible(phen, grid)
    lines: list[str] = []
    if outcome.feasible:
        lines.append("feasible")
        lines.append(f"residual={_fmt(outcome.residual)}")
    elif not config.certify:
        lines.append("grid-infeasible")
        lines.append(f"violation={_fmt(outcome.violation)}")
    else:
        functional = oracle_mod.functional_from_dual(phen, grid, outcome)
        certificate = oracle_mod.certify_steering(phen, functional)
        lines.append("certified-steering" if certificate.certified else "grid-infeasible")
        lines.append(f"violation={_fmt(outcome.violation)}")
        lines.append(f"observed_value={_fmt(certificate.observed_value)}")
        lines.append(f"lhs_bound={_fmt(certificate.lhs_bound)}")
        if config.certificate_out is not None:
            record = oracle_mod.certificate_record(phen, functional, certificate, config.tag)
            Path(config.certificate_out).write_text(_json_text(record))
    lines.append(f"grid={config.oracle_grid}")
    if config.tag is not None:
        lines.append(f"tag={config.tag}")
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def cmd_figure_cv_bounds(config: RunConfig) -> int:
    curves = []
    for nbar in config.grid_values:
        if nbar <= 0:
            raise UsageError(f"nbar grid must be strictly positive, got {_fmt(nbar)}")
        curves.append(
            (
                nbar,
                boundary_entanglement_mu(nbar),
                boundary_reid_steering_mu(nbar),
                boundary_collective_steering_mu(nbar),
            )
        )
    if config.fmt == "json":
        records = [
            {
                "nbar": nbar,
                "entanglement_mu": ent,
                "reid_mu": reid,
                "collective_mu": coll,
            }
            for nbar, ent, reid, coll in curves
        ]
        _emit(_json_text(records), config.out)
    else:
        rows = [[_fmt(nbar), _fmt(ent), _fmt(reid), _fmt(coll)] for nbar, ent, reid, coll in curves]
        _emit(_csv_table(["nbar", "entanglement_mu", "reid_mu", "collective_mu"], rows), config.out)
    unreachable = sum(coll >= 1.0 for *_, coll in curves)
    if unreachable:
        print(
            f"steerkit: note: collective boundary unreachable (mu >= 1) at {unreachable} "
            f"of {len(curves)} nbar points",
            file=sys.stderr,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--tag", default=None, help="free-text metadata echoed into outputs")

    criteria_p = sub.add_parser("criteria", help="criterion catalog")
    criteria_sub = criteria_p.add_subparsers(dest="subcommand", required=True)
    list_p = criteria_sub.add_parser("list", help="list the criterion catalog")
    add_format(list_p, "csv")

    eval_p = sub.add_parser("eval", help="evaluate one criterion on one state")
    eval_p.add_argument("--criterion", required=True)
    add_family(eval_p)
    eval_p.add_argument("--gain-mode", choices=("fixed", "optimize"), default=None)
    add_format(eval_p, "json")

    sweep_p = sub.add_parser("sweep", help="evaluate a criterion across a parameter grid")
    sweep_p.add_argument("--criterion", required=True)
    add_family(sweep_p)
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--grid", required=True, help="lo:hi:count")
    sweep_p.add_argument("--gain-mode", choices=("fixed", "optimize"), default=None)
    add_format(sweep_p, "csv")

    boundary_p = sub.add_parser("boundary", help="bisect a criterion's verdict flip")
    boundary_p.add_argument("--criterion", required=True)
    add_family(boundary_p)
    boundary_p.add_argument("--param", required=True)
    boundary_p.add_argument("--bracket", default=None, help="lo:hi (defaults to the family range)")
    boundary_p.add_argument("--tol", type=float, default=1e-9)
    boundary_p.add_argument("--gain-mode", choices=("fixed", "optimize"), default=None)
    add_format(boundary_p, "json")

    oracle_p = sub.add_parser("oracle", help="hidden-state LP oracle with optional certification")
    add_family(oracle_p)
    oracle_p.add_argument("--measurements", required=True, help="mub2, mub3, or a measurement file")
    oracle_p.add_argument("--grid", type=int, required=True, help="hidden-state grid resolution")
    oracle_p.add_argument("--certify", action="store_true")
    oracle_p.add_argument("--certificate-out", default=None)
    oracle_p.add_argument("--out", default=None)

    figure_p = sub.add_parser("figure", help="emit curve data")
    figure_sub = figure_p.add_subparsers(dest="subcommand", required=True)
    cv_p = figure_sub.add_parser("cv-bounds", help="boundary curves for the symmetric two-mode family")
    cv_p.add_argument("--nbar-grid", required=True, help="lo:hi:count")
    add_format(cv_p, "csv")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.fmt = getattr(args, "format", "csv")
    config.out = getattr(args, "out", None)
    config.tag = getattr(args, "tag", None)
    config.gain_mode = getattr(args, "gain_mode", None)
    if args.command in ("eval", "sweep", "boundary"):
        _check_criterion(args.criterion, args.family)
        config.criterion_id = args.criterion
        config.family = args.family
    if args.command == "eval":
        config.params = _family_params(args, args.family)
    if args.command in ("sweep", "boundary"):
        if args.param not in FAMILIES.get(args.family, FAMILIES["werner"]).parameter_ranges:
            raise UsageError(f"family {args.family!r} has no parameter {args.param!r}")
        config.param = args.param
        config.params = _family_params(args, args.family, skip=args.param)
    if args.command == "sweep":
        config.grid_values = _parse_grid(args.grid)
    if args.command == "boundary":
        config.bracket = _parse_bracket(args.bracket) if args.bracket is not None else None
        if args.tol <= 0:
            raise UsageError(f"--tol must be positive, got {args.tol}")
        config.tol = args.tol
    if args.command == "oracle":
        config.family = args.family
        config.params = _family_params(args, args.family)
        config.measurements = args.measurements
        config.oracle_grid = args.grid
        config.certify = args.certify
        config.certificate_out = args.certificate_out
    if args.command == "figure":
        config.grid_values = _parse_grid(args.nbar_grid)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "criteria":
            return cmd_list(config)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "boundary":
            return cmd_boundary(config)
        if args.command == "oracle":
            return cmd_oracle(config)
        if args.command == "figure":
            return cmd_figure_cv_bounds(config)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"steerkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"steerkit: failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
