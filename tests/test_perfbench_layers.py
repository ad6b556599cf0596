"""The benchmark's names and recorded outputs, checked inside the test suite.

``perfbench/tracing.py`` lists the traced functions in ``LAYERS``; a layer
whose function was renamed or deleted would otherwise only fail the
benchmark's own smoke test. ``perfbench/workloads.py`` runs the benchmark's
operations and checks their outputs against ``perfbench/reference.json``;
running its jobs here catches a change that moves a recorded cell beyond
the reference tolerance before the benchmark does.
"""

import importlib
import json
import runpy
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = runpy.run_path(str(PERFBENCH / "tracing.py"))["LAYERS"]


@pytest.mark.parametrize("module,attribute,span", LAYERS, ids=[layer[1] for layer in LAYERS])
def test_layer_resolves(module, attribute, span):
    owner = importlib.import_module(f"rislab.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py`` as the benchmark loads it, ``tracing`` beside it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return runpy.run_path(str(PERFBENCH / "workloads.py"))
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize(
    "workload,size",
    [
        ("protocol-grid", "smoke"),
        ("finite-chain", "smoke"),
        ("protocol-grid", "full"),
        ("finite-chain", "full"),
    ],
)
def test_job_matches_the_recorded_reference(workloads, tmp_path, workload, size):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    checker = workloads["Checker"](reference)
    runner = workloads["Runner"](workload, size, 1, tmp_path, checker)
    runner.job()
    assert runner.attempted == len(workloads["ops"](workload))
    assert runner.failures == []
