"""The README's Python examples run and print what their comments say.

Each fenced `python` block of README.md runs in a fresh namespace; a line
`print(...)  # expected` must print exactly `expected`, and every line the
block prints must come from such a print. Each constant the README gives a
value for, as `` `NAME` = v `` or `` `NAME`, v ``, has that value in
`steerkit.oracle`.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from steerkit import oracle

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)
CHECKED_PRINT = re.compile(r"^print\(.*\)\s+# (.*)$")
CONSTANTS = re.findall(r"`([A-Z][A-Z0-9_]*)`(?: =|,)\s+(\d+(?:\^\d+|(?:\.\d+)?(?:e-?\d+)?))", README.read_text())


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i + 1}" for i in range(len(BLOCKS))])
def test_block_prints_its_comments(block):
    expected = [m.group(1) for line in block.splitlines() if (m := CHECKED_PRINT.match(line))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert out.getvalue().splitlines() == expected


def test_readme_names_constants():
    assert {name for name, _ in CONSTANTS} >= {"STRATEGY_BLOCK", "STRATEGY_CAP"}


@pytest.mark.parametrize(("name", "value"), CONSTANTS, ids=[f"{name}={value}" for name, value in CONSTANTS])
def test_constant_matches_readme(name, value):
    base, _, exponent = value.partition("^")
    assert getattr(oracle, name) == (int(base) ** int(exponent) if exponent else float(value))
