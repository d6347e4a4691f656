"""The README's experiment commands run with their documented defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *command], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize(
    "command",
    [
        ["scripts/werner_thresholds.py"],
        ["scripts/cv_boundary_curves.py", "--check"],
        ["scripts/oracle_refinement.py"],
    ],
    ids=lambda command: " ".join(command),
)
def test_documented_command_runs(command):
    proc = run_script(command)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_oracle_refinement_stdout_repeats():
    """Wall-clock timings go to stderr, so two runs print the same table."""
    command = ["scripts/oracle_refinement.py", "--resolutions", "50"]
    first, second = run_script(command), run_script(command)
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout
    assert "seconds" not in first.stdout
    assert first.stderr.startswith("grid 50: ")
