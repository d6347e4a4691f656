"""CLI output compared byte for byte with recorded golden files.

The files in `tests/golden/` hold stdout (and, for the oracle, the
certificate JSON) of the criterion catalog, spin sweeps, evals, boundaries,
the CV boundary curves and oracle certifications. A `NAME.stderr` file next
to a stdout file holds that command's stderr; a command without one must
write nothing there. The `usage-*.stderr` files hold the message and pin the
order in which usage errors (exit code 2) are checked. Any change to a
printed float, a verdict, a message or the layout fails here. After an
intended output change, rewrite them with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from steerkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SPIN_CRITERIA = (
    "product-spin",
    "bowen",
    "sum-two",
    "sum-three-spin",
    "collective-spin-sum",
    "linear-2",
    "linear-3",
    "linear-spin-j",
)

# (golden file of stdout, argv, golden file of the certificate JSON or None)
CASES: list[tuple[str, list[str], str | None]] = []
for _criterion in SPIN_CRITERIA:
    for _fmt in ("csv", "json"):
        CASES.append(
            (
                f"sweep-{_criterion}.{_fmt}",
                ["sweep", "--criterion", _criterion, "--family", "werner", "--param", "mu",
                 "--grid", "0:1:11", "--format", _fmt],
                None,
            )
        )
    CASES.append(
        (
            f"eval-{_criterion}.json",
            ["eval", "--criterion", _criterion, "--family", "werner", "--mu", "0.8",
             "--format", "json"],
            None,
        )
    )
for _preset, _mu in (("mub2", "0.72"), ("mub3", "0.6")):
    CASES.append(
        (
            f"oracle-{_preset}.txt",
            ["oracle", "--family", "werner", "--mu", _mu, "--measurements", _preset,
             "--grid", "200", "--certify"],
            f"oracle-{_preset}.cert.json",
        )
    )
# The other branches of `oracle`: a feasible grid, an uncertified infeasible
# one, and a certificate over measurements read from a file (the four cube
# diagonals, written by `util.write_measurement_file`: 16 strategies, 65 LP rows).
_ORACLE_WERNER = ["oracle", "--family", "werner"]
CASES.append(
    ("oracle-feasible.txt", [*_ORACLE_WERNER, "--mu", "0.5", "--measurements", "mub3", "--grid", "200"], None)
)
CASES.append(
    ("oracle-grid-infeasible.txt",
     [*_ORACLE_WERNER, "--mu", "0.75", "--measurements", "mub2", "--grid", "200"], None)
)
CASES.append(
    (
        "oracle-cube4.txt",
        [*_ORACLE_WERNER, "--mu", "0.7", "--measurements", str(GOLDEN / "cube4.measurements"),
         "--grid", "50", "--certify"],
        "oracle-cube4.cert.json",
    )
)
# Phenomena with joint probabilities at or within 1e-7 of zero: the singlet's,
# and Werner one part in 1e8 short of it. HiGHS's presolve would reduce these
# LPs, and the oracle skips it, so the last bits of these numbers depend on that.
CASES.append(
    (
        "oracle-singlet.txt",
        ["oracle", "--family", "singlet", "--measurements", "mub3", "--grid", "200", "--certify"],
        "oracle-singlet.cert.json",
    )
)
CASES.append(
    (
        "oracle-werner-near-one.txt",
        [*_ORACLE_WERNER, "--mu", "0.99999999", "--measurements", "mub2", "--grid", "200", "--certify"],
        "oracle-werner-near-one.cert.json",
    )
)


CASES.append(("criteria-list.csv", ["criteria", "list"], None))
CASES.append(("criteria-list.json", ["criteria", "list", "--format", "json"], None))
_WERNER = ["--family", "werner", "--mu", "0.8"]
_GAUSSIAN = ["--family", "symmetric-gaussian", "--nbar", "1", "--mu", "0.9"]
for _criterion, _family in (
    ("product-spin", _WERNER), ("reid-cv", _GAUSSIAN), ("collective-cv-sum", _GAUSSIAN)
):
    CASES.append(
        (f"eval-{_criterion}.csv", ["eval", "--criterion", _criterion, *_family, "--format", "csv"], None)
    )
CASES.append(("eval-tag.json", ["eval", "--criterion", "linear-3", *_WERNER, "--tag", "run 7"], None))
CV_CRITERIA = ("reid-cv", "duan-simon", "collective-cv-sum", "collective-cv-product")
for _criterion in ("reid-cv", "duan-simon", "collective-cv-product"):
    CASES.append(
        (f"eval-{_criterion}.json", ["eval", "--criterion", _criterion, *_GAUSSIAN, "--format", "json"], None)
    )
# The gain modes that are not their criterion's catalog default.
for _criterion in ("collective-cv-sum", "collective-cv-product"):
    CASES.append(
        (
            f"eval-{_criterion}-optimize.json",
            ["eval", "--criterion", _criterion, *_GAUSSIAN, "--gain-mode", "optimize"],
            None,
        )
    )
CASES.append(
    (
        "eval-collective-spin-sum-fixed.json",
        ["eval", "--criterion", "collective-spin-sum", *_WERNER, "--gain-mode", "fixed"],
        None,
    )
)
CASES.append(
    (
        "sweep-collective-spin-sum-fixed.csv",
        ["sweep", "--criterion", "collective-spin-sum", "--family", "werner", "--param", "mu",
         "--grid", "0:1:11", "--gain-mode", "fixed"],
        None,
    )
)
for _criterion in CV_CRITERIA:
    CASES.append(
        (
            f"sweep-{_criterion}.csv",
            ["sweep", "--criterion", _criterion, "--family", "symmetric-gaussian", "--nbar", "1",
             "--param", "mu", "--grid", "0:1:11"],
            None,
        )
    )
for _criterion in ("duan-simon", "collective-cv-sum"):
    CASES.append(
        (
            f"boundary-{_criterion}.json",
            ["boundary", "--criterion", _criterion, "--family", "symmetric-gaussian", "--nbar", "1",
             "--param", "mu"],
            None,
        )
    )
for _fmt in ("csv", "json"):
    for _criterion in ("product-spin", "sum-two", "sum-three-spin"):
        CASES.append(
            (
                f"boundary-{_criterion}.{_fmt}",
                ["boundary", "--criterion", _criterion, "--family", "werner", "--param", "mu",
                 "--format", _fmt],
                None,
            )
        )
    CASES.append(
        (
            f"boundary-linear-3.{_fmt}",
            ["boundary", "--criterion", "linear-3", "--family", "werner", "--param", "mu",
             "--format", _fmt],
            None,
        )
    )
    CASES.append(
        (
            f"boundary-reid-cv.{_fmt}",
            ["boundary", "--criterion", "reid-cv", "--family", "symmetric-gaussian", "--nbar", "1",
             "--param", "mu", "--format", _fmt],
            None,
        )
    )
    CASES.append(
        (
            f"figure-cv-bounds.{_fmt}",
            ["figure", "cv-bounds", "--nbar-grid", "0.1:10:50", "--format", _fmt],
            None,
        )
    )

_SWEEP_MU = ["sweep", "--criterion", "linear-3", "--family", "werner", "--param", "mu"]
_BOUNDARY_MU = ["boundary", "--criterion", "linear-3", "--family", "werner", "--param", "mu"]
_ORACLE = ["oracle", "--family", "werner", "--measurements", "mub3"]
# (golden file of stderr, argv); each argv exits with a usage error.
USAGE_ERRORS: list[tuple[str, list[str]]] = [
    ("usage-swept-flag.stderr", [*_SWEEP_MU, "--mu", "0.5", "--grid", "0:1:3"]),
    ("usage-gain-mode.stderr", ["eval", "--criterion", "linear-3", *_WERNER, "--gain-mode", "fixed"]),
    ("usage-oracle-grid.stderr", [*_ORACLE, "--mu", "0.5", "--grid", "0"]),
    ("usage-criterion-before-param.stderr",
     ["sweep", "--criterion", "bogus", "--family", "werner", "--param", "nbar", "--grid", "x"]),
    ("usage-gain-mode-before-grid.stderr", [*_SWEEP_MU, "--grid", "x", "--gain-mode", "fixed"]),
    ("usage-param-before-tol.stderr",
     ["boundary", "--criterion", "linear-3", "--family", "werner", "--param", "nbar", "--tol", "-1"]),
    ("usage-bracket-before-tol.stderr", [*_BOUNDARY_MU, "--tol", "-1", "--bracket", "x"]),
    ("usage-bracket-unbounded.stderr",
     ["boundary", "--criterion", "reid-cv", "--family", "symmetric-gaussian", "--mu", "0.9", "--param", "nbar"]),
    ("usage-family-before-grid.stderr", [*_ORACLE, "--grid", "0"]),
    ("usage-grid-before-kind.stderr",
     ["oracle", "--family", "symmetric-gaussian", "--nbar", "1", "--mu", "0.5",
      "--measurements", "mub3", "--grid", "0"]),
    ("usage-figure-nbar.stderr", ["figure", "cv-bounds", "--nbar-grid", "0:1:3"]),
    ("usage-certificate-out-without-certify.stderr",
     ["oracle", "--family", "werner", "--mu", "0.9", "--measurements", "mub2", "--grid", "50",
      "--certificate-out", "certificate.json"]),
]


@pytest.mark.parametrize("name, argv, cert_name", CASES, ids=[case[0] for case in CASES])
def test_output_matches_golden(name, argv, cert_name, capsys, tmp_path):
    cert_path = tmp_path / "cert.json" if cert_name else None
    if cert_path is not None:
        argv = [*argv, "--certificate-out", str(cert_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    err_path = GOLDEN / f"{name}.stderr"
    assert captured.err == (err_path.read_text() if err_path.exists() else "")
    assert captured.out.encode() == (GOLDEN / name).read_bytes()
    if cert_name is not None:
        assert cert_path.read_bytes() == (GOLDEN / cert_name).read_bytes()


@pytest.mark.parametrize("name, argv", USAGE_ERRORS, ids=[case[0] for case in USAGE_ERRORS])
def test_usage_error_matches_golden(name, argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.encode() == (GOLDEN / name).read_bytes()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, cert_name in CASES:
        if cert_name is not None:
            argv = [*argv, "--certificate-out", str(GOLDEN / cert_name)]
        code, out, err = _run(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        (GOLDEN / name).write_bytes(out.encode())
        if err:
            (GOLDEN / f"{name}.stderr").write_bytes(err.encode())
    for name, argv in USAGE_ERRORS:
        code, out, err = _run(argv)
        if code != 2 or out:
            raise SystemExit(f"{' '.join(argv)} exited with {code}, not a usage error")
        (GOLDEN / name).write_bytes(err.encode())


if __name__ == "__main__":
    regenerate()
