"""The README's experiment commands run with their documented defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *command], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
