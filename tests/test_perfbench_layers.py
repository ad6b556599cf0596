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
from test_cli import BASE

from rislab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = runpy.run_path(str(PERFBENCH / "tracing.py"))
LAYERS = TRACING["LAYERS"]


@pytest.mark.parametrize("module,attribute,span", LAYERS, ids=[layer[1] for layer in LAYERS])
def test_layer_resolves(module, attribute, span):
    owner = importlib.import_module(f"rislab.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_each_task_runs_through_its_traced_layer(tmp_path):
    """``tracing.installed`` rebinds ``cli.task_*``; ``cli.main`` must call
    the rebound name, or the benchmark's ``cli.task`` metrics read 0."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps(BASE))
    tracer = TRACING["Tracer"]()
    with TRACING["installed"](tracer):
        for task in cli.TASKS:
            tracer.begin_op(task)
            assert cli.main([task, "--config", str(config), "--out", str(tmp_path / task)]) == 0
    calls = TRACING["Summary"](tracer).calls_by_op()
    assert {task: calls.get(f"{task}/cli.task") for task in cli.TASKS} == dict.fromkeys(
        cli.TASKS, 1
    )


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
