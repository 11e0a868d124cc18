"""The benchmark's workloads (perfbench/workloads.py) at seed 0 must give
the digests in perfbench/expected_digests.json. Running one pass of each
here makes a moved seeded output, or a deleted name that a workload calls,
fail the tests rather than the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected_digests.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_pass_at_seed_0_gives_the_expected_digests(workloads, workload, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    setup, run_pass = workloads.WORKLOADS[workload]
    result = run_pass(setup(), 0)
    assert result.errors == []
    assert result.digests == EXPECTED[workload]
