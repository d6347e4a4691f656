"""The benchmark's own checks pass on the first seeded cycle of every workload.

`bench/workloads.py` is loaded as it is, without edits. Each op of the first
cycle runs once; its output must pass the workload's check against the true
reference and fail it against the deliberately corrupted one, as the
benchmark requires of every op it times.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SEED = 1
NAMES = ["exact-bound", "oracle-certify", "spin-sweep", "thresholds"]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", NAMES)
def test_first_cycle_passes_checks(workloads, name, tmp_path):
    assert sorted(workloads.WORKLOADS) == NAMES
    workload = workloads.WORKLOADS[name]()
    ctx = workloads.Context(tmp_path / "ops")
    ops = next(workloads.schedule(workload, SEED))
    assert ops
    for op in ops:
        output = workload.run(op, ctx)
        assert workload.check(op, output).ok, op
        assert not workload.check(op, output, corrupt=True).ok, op
