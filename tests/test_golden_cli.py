"""CLI output compared byte for byte with recorded golden files.

The files in `tests/golden/` hold stdout (and, for the oracle, the
certificate JSON) of spin sweeps, evals and oracle certifications on the
Werner family. Any change to a printed float, a verdict or the layout fails
here. After an intended output change, rewrite them with

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


@pytest.mark.parametrize("name, argv, cert_name", CASES, ids=[case[0] for case in CASES])
def test_output_matches_golden(name, argv, cert_name, capsys, tmp_path):
    cert_path = tmp_path / "cert.json" if cert_name else None
    if cert_path is not None:
        argv = [*argv, "--certificate-out", str(cert_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / name).read_bytes()
    if cert_name is not None:
        assert cert_path.read_bytes() == (GOLDEN / cert_name).read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, cert_name in CASES:
        if cert_name is not None:
            argv = [*argv, "--certificate-out", str(GOLDEN / cert_name)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        (GOLDEN / name).write_bytes(buf.getvalue().encode())


if __name__ == "__main__":
    regenerate()
