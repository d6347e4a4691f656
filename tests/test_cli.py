import argparse
import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerkit import cli, families
from steerkit.cli import main, read_measurement_file
from steerkit.criteria import CATALOG
from steerkit.measurements import observable_to_measurement
from steerkit.oracle import mub_qubit_measurements
from util import cap_calls, write_measurement_file


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCriteriaList:
    def test_thirteen_rows(self, capsys):
        code, out, _ = run_cli(capsys, "criteria", "list")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert len(rows) == 1 + 13
        ids = [row[0] for row in rows[1:]]
        assert "reid-cv" in ids and "linear-3" in ids

    def test_json_array(self, capsys):
        code, out, _ = run_cli(capsys, "criteria", "list", "--format", "json")
        records = json.loads(out)
        assert code == 0
        assert isinstance(records, list) and len(records) == 13

    def test_unsupported_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["criteria", "list", "--format", "xml"])
        assert exc.value.code == 2


class TestEval:
    def test_werner_product_spin(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "werner", "--mu", "0.8", "--criterion", "product-spin"
        )
        record = json.loads(out)
        assert code == 0
        assert record["violated"] is True
        assert record["lhs_value"] == pytest.approx(0.09, abs=1e-10)
        assert record["bound"] == pytest.approx(0.2, abs=1e-10)

    def test_gaussian_reid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--family", "symmetric-gaussian", "--nbar", "1", "--mu", "0.9",
            "--criterion", "reid-cv",
        )
        record = json.loads(out)
        assert code == 0
        assert record["violated"] is True
        assert record["lhs_value"] == pytest.approx(0.84, abs=1e-10)

    def test_out_of_range_mu_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--family", "werner", "--mu", "1.2", "--criterion", "product-spin"
        )
        assert code == 2
        assert "range" in err

    def test_unknown_criterion_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "eval", "--family", "werner", "--mu", "0.5", "--criterion", "bogus"
        )
        assert code == 2

    def test_kind_mismatch_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--family", "werner", "--mu", "0.5", "--criterion", "reid-cv"
        )
        assert code == 2
        assert "not applicable" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "werner", "--mu", "0.5", "--criterion", "linear-3", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_family_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "werner", "--criterion", "linear-3")
        assert code == 2
        assert "requires" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--family", "werner", "--mu", "0.8", "--criterion", "linear-3",
            "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        header, values = rows
        record = dict(zip(header, values))
        assert record["violated"] == "true"
        assert float(record["lhs_value"]) == pytest.approx(0.6, abs=1e-12)

    def test_csv_tag_is_the_last_column(self, capsys):
        argv = ("eval", "--family", "werner", "--mu", "0.8", "--criterion", "linear-3", "--format", "csv")
        _, untagged, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--tag", "run, 7")
        assert code == 0
        header, values = list(csv.reader(io.StringIO(out)))
        assert (header[-1], values[-1]) == ("tag", "run, 7")
        assert list(csv.reader(io.StringIO(untagged))) == [header[:-1], values[:-1]]

    @pytest.mark.parametrize("nbar", [1e5, 1e6, 1e7])
    def test_reid_cv_relative_error_at_large_nbar(self, capsys, nbar):
        # The exact lhs of the pure state is 1/(1 + 2·nbar); the Schur
        # complement's cancellation costs a relative error below 4·ε·nbar².
        code, out, err = run_cli(
            capsys, "eval", "--criterion", "reid-cv", "--family", "symmetric-gaussian",
            "--nbar", repr(nbar), "--mu", "1",
        )
        assert code == 0, err
        record = json.loads(out)
        exact = 1.0 / (1.0 + 2.0 * nbar)
        assert record["violated"] is True
        assert abs(record["lhs_value"] - exact) <= 4 * np.finfo(float).eps * nbar**2 * exact


class TestSweep:
    ARGS = (
        "sweep", "--criterion", "linear-3", "--family", "werner",
        "--param", "mu", "--grid", "0:1:11",
    )

    def test_verdict_pattern(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["parameter", "lhs", "bound", "margin", "violated"]
        violated = [float(r[0]) for r in rows[1:] if r[4] == "true"]
        assert violated == pytest.approx([0.6, 0.7, 0.8, 0.9, 1.0])

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_csv_round_trip_matches_json(self, capsys):
        _, csv_out, _ = run_cli(capsys, *self.ARGS)
        _, json_out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
        json_rows = json.loads(json_out)
        for csv_row, json_row in zip(csv_rows, json_rows):
            for value, key in zip(csv_row, ("parameter", "lhs", "bound", "margin")):
                assert abs(float(value) - json_row[key]) <= 1e-12

    def test_swept_param_conflicts_with_fixed_flag(self, capsys):
        code, _, err = run_cli(capsys, *self.ARGS, "--mu", "0.3")
        assert code == 2
        assert "conflicts" in err

    def test_empty_grid_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sweep", "--criterion", "linear-3", "--family", "werner",
            "--param", "mu", "--grid", "0:1:0",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--grid", "0.5:1.5:3"), "grid 0.5:1.5:3 outside range [0, 1] of parameter 'mu'"),
            (("--grid=-0.5:0.7:3",), "grid -0.5:0.7:3 outside range [0, 1] of parameter 'mu'"),
            (("--grid", "1.2:0:4"), "grid 1.2:0:4 outside range [0, 1] of parameter 'mu'"),
        ],
        ids=["above", "below", "descending"],
    )
    def test_grid_outside_family_range_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *self.ARGS[:-2], *argv)
        assert (code, out, err) == (2, "", f"steerkit: error: {message}\n")

    @pytest.mark.parametrize("command", ["sweep", "boundary"])
    def test_tag_is_not_an_option(self, command):
        argv = [command, "--criterion", "linear-3", "--family", "werner", "--param", "mu", "--tag", "x"]
        if command == "sweep":
            argv += ["--grid", "0:1:3"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


_BOUNDARY_MU = ("boundary", "--criterion", "linear-3", "--family", "werner", "--param", "mu")
_GAUSSIAN_NBAR = ("--family", "symmetric-gaussian", "--nbar")


class TestBoundary:
    def test_sum_three_spin_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "boundary", "--criterion", "sum-three-spin", "--family", "werner",
            "--param", "mu", "--tol", "1e-9",
        )
        record = json.loads(out)
        assert code == 0
        assert record["threshold"] == pytest.approx(0.577350269, abs=1e-8)

    def test_bad_bracket_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "boundary", "--criterion", "linear-3", "--family", "werner",
            "--param", "mu", "--bracket", "0:0.5",
        )
        assert code == 1
        assert "verdict" in err

    @pytest.mark.parametrize("bracket", ["0.7:0.5", "0.5:0.5"])
    def test_unordered_bracket_exits_2(self, capsys, bracket):
        code, out, err = run_cli(capsys, *_BOUNDARY_MU, "--bracket", bracket)
        assert (code, out) == (2, "")
        assert err == f"steerkit: error: bracket lo must be below hi, got '{bracket}'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((*_BOUNDARY_MU, "--bracket", "0.5:1.5"), "bracket 0.5:1.5 outside range [0, 1] of parameter 'mu'"),
            ((*_BOUNDARY_MU, "--bracket=-0.5:0.7"), "bracket -0.5:0.7 outside range [0, 1] of parameter 'mu'"),
            (
                ("boundary", "--criterion", "reid-cv", *_GAUSSIAN_NBAR, "1", "--param", "mu", "--bracket", "0.1:2"),
                "bracket 0.1:2 outside range [0, 1] of parameter 'mu'",
            ),
        ],
        ids=["werner-above", "werner-below", "gaussian-mu"],
    )
    def test_bracket_outside_family_range_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"steerkit: error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            (*_BOUNDARY_MU, "--tol", "1e-20"),
            ("boundary", "--criterion", "reid-cv", *_GAUSSIAN_NBAR, "1", "--param", "mu", "--tol", "1e-300"),
        ],
        ids=["linear-3", "reid-cv"],
    )
    def test_tol_below_float_spacing_stops_at_adjacent_floats(self, capsys, monkeypatch, argv):
        calls = cap_calls(monkeypatch, families, "evaluate", 200)
        code, out, _ = run_cli(capsys, *argv)
        record = json.loads(out)
        assert code == 0
        assert np.nextafter(record["bracket_lo"], np.inf) == record["bracket_hi"]
        assert record["threshold"] in (record["bracket_lo"], record["bracket_hi"])
        assert record["evaluations"] == calls[0]

    def test_gain_mode_changes_collective_boundary(self, capsys):
        # Fixed gains flip at the collective bound; optimized gains reduce to
        # the conditional-variance criterion and flip at its lower boundary.
        import math

        base = (
            "boundary", "--criterion", "collective-cv-sum", "--family", "symmetric-gaussian",
            "--nbar", "1", "--param", "mu", "--tol", "1e-9",
        )
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        fixed = json.loads(out)["threshold"]
        code, out, _ = run_cli(capsys, *base, "--gain-mode", "optimize")
        assert code == 0
        optimized = json.loads(out)["threshold"]
        assert fixed == pytest.approx(5 / (4 * math.sqrt(2)), abs=1e-8)
        assert optimized == pytest.approx(math.sqrt(3) / 2, abs=1e-8)


class TestGainMode:
    WERNER = ("--family", "werner", "--mu", "0.8")
    GAUSSIAN = ("--family", "symmetric-gaussian", "--nbar", "1", "--mu", "0.9")

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--criterion", "linear-3", *WERNER),
            ("eval", "--criterion", "reid-cv", *GAUSSIAN),
            ("sweep", "--criterion", "product-spin", "--family", "werner", "--param", "mu",
             "--grid", "0:1:3"),
            ("boundary", "--criterion", "duan-simon", "--family", "symmetric-gaussian",
             "--nbar", "1", "--param", "mu"),
        ],
        ids=["eval", "eval-cv", "sweep", "boundary"],
    )
    @pytest.mark.parametrize("mode", ["fixed", "optimize"])
    def test_non_collective_criterion_exits_2(self, capsys, argv, mode):
        code, out, err = run_cli(capsys, *argv, "--gain-mode", mode)
        assert code == 2
        assert out == ""
        assert f"not to {argv[2]!r}" in err

    @pytest.mark.parametrize(
        "criterion, family",
        [("collective-spin-sum", WERNER), ("collective-cv-sum", GAUSSIAN),
         ("collective-cv-product", GAUSSIAN)],
    )
    def test_collective_criteria_accept_it(self, capsys, criterion, family):
        code, out, _ = run_cli(capsys, "eval", "--criterion", criterion, *family, "--gain-mode", "fixed")
        assert code == 0
        assert json.loads(out)["details"]["gain_mode"] == "fixed"

    @pytest.mark.parametrize(
        "criterion", [c for c, info in CATALOG.items() if info.evaluator is not None]
    )
    def test_catalog_alone_decides_who_takes_it(self, capsys, criterion):
        # custom-convex has no evaluator, so the CLI refuses it before this check.
        info = CATALOG[criterion]
        family = self.WERNER if info.kind == "spin" else self.GAUSSIAN
        code, out, err = run_cli(capsys, "eval", "--criterion", criterion, *family, "--gain-mode", "fixed")
        pinned = (GOLDEN / "usage-gain-mode.stderr").read_text().replace("'linear-3'", repr(criterion))
        if info.gain_mode is None:
            assert (code, out, err) == (2, "", pinned)
        else:
            assert code == 0 and err == ""

    def test_gain_mode_criteria_are_the_documented_three(self):
        readme = (ROOT / "README.md").read_text()
        bullet = readme[readme.index("- `--gain-mode fixed|optimize`"):]
        documented = re.findall(r"`(collective-[a-z-]+)`", bullet[: bullet.index("\n- ")])
        assert sorted(c for c, info in CATALOG.items() if info.gain_mode is not None) == sorted(documented)
        assert len(documented) == 3

    def test_library_evaluate_still_ignores_it(self):
        from steerkit.criteria import evaluate
        from steerkit.families import werner_state

        state = werner_state(0.8)
        assert evaluate("linear-3", state, gain_mode="optimize") == evaluate("linear-3", state)


class TestOracleCommand:
    def test_feasible_werner_04(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--family", "werner", "--mu", "0.4", "--measurements", "mub3", "--grid", "80",
        )
        assert code == 0
        assert out.splitlines()[0] == "feasible"

    def test_certified_werner_09(self, capsys, tmp_path):
        cert_path = tmp_path / "certificate.json"
        code, out, _ = run_cli(
            capsys,
            "oracle", "--family", "werner", "--mu", "0.9", "--measurements", "mub3",
            "--grid", "80", "--certify", "--certificate-out", str(cert_path),
        )
        assert code == 0
        assert out.splitlines()[0] == "certified-steering"
        record = json.loads(cert_path.read_text())
        assert record["verdict"] == "certified-steering"
        assert record["observed_value"] > record["lhs_bound"]
        assert len(record["functional"]) == 9

    def test_grid_infeasible_without_certify(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--family", "werner", "--mu", "0.9", "--measurements", "mub2", "--grid", "60",
        )
        assert code == 0
        assert out.splitlines()[0] == "grid-infeasible"

    def test_zero_grid_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "oracle", "--family", "werner", "--mu", "0.4", "--measurements", "mub3", "--grid", "0",
        )
        assert code == 2

    def test_tag_is_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--family", "werner", "--mu", "0.4", "--measurements", "mub2",
            "--grid", "40", "--tag", "run-7",
        )
        assert code == 0
        assert "tag=run-7" in out

    def test_only_the_oracle_imports_scipy_optimize(self):
        # scipy.optimize costs about 50 MB and 0.5 s of import, so only the LP
        # solve imports it. A fresh interpreter sees what each command loads.
        script = """
import contextlib, io, sys
from steerkit.cli import main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0
run("eval", "--family", "werner", "--mu", "0.8", "--criterion", "linear-3")
run("sweep", "--criterion", "linear-3", "--family", "werner", "--param", "mu", "--grid", "0:1:3")
print("scipy.optimize" in sys.modules)
run("oracle", "--family", "werner", "--mu", "0.4", "--measurements", "mub2", "--grid", "20")
print("scipy.optimize" in sys.modules)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


class TestMeasurementFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mub3.txt"
        original = mub_qubit_measurements(3)
        write_measurement_file(str(path), original)
        loaded = read_measurement_file(str(path))
        assert len(loaded) == 3
        for orig, back in zip(original, loaded):
            assert back.label == orig.label
            assert back.values == orig.values
            for e1, e2 in zip(orig.effects, back.effects):
                assert np.max(np.abs(e1 - e2)) < 1e-12

    def test_oracle_accepts_file(self, capsys, tmp_path):
        path = tmp_path / "mub2.txt"
        write_measurement_file(str(path), mub_qubit_measurements(2))
        code, out, _ = run_cli(
            capsys,
            "oracle", "--family", "werner", "--mu", "0.4", "--measurements", str(path), "--grid", "60",
        )
        assert code == 0
        assert out.splitlines()[0] == "feasible"

    def test_malformed_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("measurement X\noutcome 1\n0.5 0 0.5\n")
        code, _, _ = run_cli(
            capsys,
            "oracle", "--family", "werner", "--mu", "0.4", "--measurements", str(path), "--grid", "40",
        )
        assert code == 1

    def _oracle_on_file(self, capsys, tmp_path, text):
        path = tmp_path / "measurements.txt"
        path.write_text(text)
        return run_cli(
            capsys,
            "oracle", "--family", "werner", "--mu", "0.4", "--measurements", str(path), "--grid", "40",
        )

    def test_outcome_before_first_measurement_exits_1(self, capsys, tmp_path):
        # Without the check the orphan block is dropped and the mub2 file runs.
        valid = tmp_path / "mub2.txt"
        write_measurement_file(str(valid), mub_qubit_measurements(2))
        text = "outcome 1\n1 0 0 0\n0 0 0 0\n" + valid.read_text()
        code, _, err = self._oracle_on_file(capsys, tmp_path, text)
        assert code == 1
        assert "line 1: outcome before the first measurement line" in err

    def test_ragged_row_names_line_and_label(self, capsys, tmp_path):
        code, _, err = self._oracle_on_file(capsys, tmp_path, "measurement Jz\noutcome 0.5\n1 0 0 0\n0 0\n")
        assert code == 1
        assert "line 4:" in err and "'Jz'" in err

    def test_unparsable_number_names_line(self, capsys, tmp_path):
        code, _, err = self._oracle_on_file(capsys, tmp_path, "measurement Jz\noutcome half\n1 0 0 0\n0 0 0 0\n")
        assert code == 1
        assert "line 2:" in err and "'half'" in err

    def test_qutrit_file_on_qubit_family_exits_2(self, capsys, tmp_path):
        qutrit = tmp_path / "qutrit.txt"
        write_measurement_file(str(qutrit), (observable_to_measurement(np.diag([1.0, 0.0, -1.0]), "Jz"),))
        code, out, err = self._oracle_on_file(capsys, tmp_path, qutrit.read_text())
        assert code == 2
        assert out == ""
        assert "measurements.txt" in err and "dimension 3" in err and "'werner'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*_BOUNDARY_MU, "--tol", "nan"), "--tol must be finite, got nan"),
        ((*_BOUNDARY_MU, "--tol", "inf"), "--tol must be finite, got inf"),
        ((*_BOUNDARY_MU, "--bracket", "nan:1"), "bracket endpoints must be finite, got 'nan:1'"),
        ((*_BOUNDARY_MU, "--bracket", "0:inf"), "bracket endpoints must be finite, got '0:inf'"),
        (("figure", "cv-bounds", "--nbar-grid", "nan:1:3"), "grid endpoints must be finite, got 'nan:1:3'"),
        (
            ("sweep", "--criterion", "linear-3", "--family", "werner", "--param", "mu", "--grid", "0:inf:3"),
            "grid endpoints must be finite, got '0:inf:3'",
        ),
        (
            ("eval", "--criterion", "collective-cv-sum", *_GAUSSIAN_NBAR, "inf", "--mu", "0.5"),
            "--nbar must be finite, got inf",
        ),
        (
            ("sweep", "--criterion", "reid-cv", *_GAUSSIAN_NBAR, "inf", "--param", "mu", "--grid", "0:1:3"),
            "--nbar must be finite, got inf",
        ),
        (
            ("boundary", "--criterion", "duan-simon", *_GAUSSIAN_NBAR, "inf", "--param", "mu"),
            "--nbar must be finite, got inf",
        ),
        (
            ("eval", "--criterion", "reid-cv", *_GAUSSIAN_NBAR, "nan", "--mu", "0.5"),
            "parameter nbar=nan outside range [0, inf]",
        ),
        (
            ("eval", "--criterion", "linear-3", "--family", "werner", "--mu", "inf"),
            "parameter mu=inf outside range [0, 1]",
        ),
    ],
    ids=[
        "tol-nan", "tol-inf", "bracket-nan", "bracket-inf", "nbar-grid-nan", "grid-inf",
        "eval-nbar-inf", "sweep-nbar-inf", "boundary-nbar-inf", "nbar-nan", "mu-inf",
    ],
)
def test_non_finite_number_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"steerkit: error: {message}\n")


class TestFigure:
    ARGS = ("figure", "cv-bounds", "--nbar-grid", "0.5:5:10")

    def test_columns_match_closed_forms(self, capsys):
        from steerkit.gaussian import (
            boundary_collective_steering_mu,
            boundary_entanglement_mu,
            boundary_reid_steering_mu,
        )

        code, out, _ = run_cli(capsys, *self.ARGS)
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["nbar", "entanglement_mu", "reid_mu", "collective_mu"]
        for row in rows[1:]:
            nbar = float(row[0])
            assert float(row[1]) == pytest.approx(boundary_entanglement_mu(nbar), abs=1e-12)
            assert float(row[2]) == pytest.approx(boundary_reid_steering_mu(nbar), abs=1e-12)
            assert float(row[3]) == pytest.approx(boundary_collective_steering_mu(nbar), abs=1e-12)

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_nonpositive_nbar_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "cv-bounds", "--nbar-grid", "0:5:10")
        assert code == 2

    def test_unreachable_collective_boundary_noted_on_stderr(self, capsys):
        # For nbar < 1/8 the collective boundary lies above mu = 1: here at 0.05 and 0.1.
        code, out, err = run_cli(capsys, "figure", "cv-bounds", "--nbar-grid", "0.05:0.2:4")
        assert code == 0
        assert [float(row[3]) >= 1 for row in list(csv.reader(io.StringIO(out)))[1:]] == [True, True, False, False]
        assert err == "steerkit: note: collective boundary unreachable (mu >= 1) at 2 of 4 nbar points\n"
        _, _, err = run_cli(capsys, *self.ARGS)
        assert err == ""

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curves.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("nbar,")


class TestOneParser:
    def test_consecutive_calls_leak_no_flags(self, capsys, tmp_path):
        werner = ("--family", "werner", "--mu", "0.8", "--criterion", "linear-3")
        out_file = tmp_path / "first.csv"
        code, out, _ = run_cli(capsys, "eval", *werner, "--tag", "first", "--format", "csv", "--out", str(out_file))
        assert (code, out) == (0, "")
        assert out_file.read_text().startswith("criterion_id,")
        code, out, _ = run_cli(capsys, "eval", *werner)
        record = json.loads(out)  # the default format, on stdout
        assert code == 0 and "tag" not in record
        assert out_file.read_text().startswith("criterion_id,")

        oracle = ("oracle", "--family", "werner", "--mu", "0.3", "--measurements", "mub2", "--grid", "20")
        code, out, _ = run_cli(capsys, *oracle, "--tag", "first", "--out", str(tmp_path / "first.txt"))
        assert (code, out) == (0, "")
        code, out, _ = run_cli(capsys, *oracle)
        lines = out.splitlines()
        assert code == 0 and lines[0] == "feasible" and lines[-1] == "grid=20"

        code, _, err = run_cli(capsys, "eval", "--family", "werner", "--criterion", "linear-3")
        assert code == 2 and "requires --mu" in err

    def test_parser_built_once(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "steerkit":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (("criteria", "list"), ("eval", "--family", "werner", "--mu", "0.5", "--criterion", "bowen")) * 3:
            assert run_cli(capsys, *argv)[0] == 0
        assert len(built) == 1
        assert cli.build_parser() is built[0]


def test_cli_reads_no_private_names_of_other_modules():
    # Private names of criteria, oracle and the rest are theirs to change;
    # the CLI reads their public names only (such as CriterionInfo.gain_mode).
    tree = ast.parse((ROOT / "src" / "steerkit" / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    # `from . import oracle as oracle_mod` binds a module; `from .criteria import CATALOG` a name.
    modules = {alias.asname or alias.name for node in imports if node.module is None for alias in node.names}
    private = [f"import {alias.name}" for node in imports for alias in node.names if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_") and not node.attr.endswith("__"):
                private.append(f"{node.value.id}.{node.attr}")
    assert "oracle_mod" in modules
    assert private == []
