"""Smoke test of the benchmark at the CLI tests' sizes, kept out of Tier-1.

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

The file name does not match pytest's ``test_*.py`` pattern, so the
repository's test suite does not collect it. Runs every workload in both
trace modes with ``--size smoke`` and checks that every metric declared in
``BENCHMARK.json`` is printed with its unit and that no operation failed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every workload the benchmark defines, including those BENCHMARK.json does
# not declare.
WORKLOADS = ("protocol-grid", "finite-chain", "wide-sampling")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_every_declared_metric_is_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in bench[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, (workload, trace)
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            assert result["attempted"] >= 1
            assert result["failed"] == 0 and result["correct"], proc.stdout


def test_refuses_a_tree_without_sources():
    bare = ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "protocol-grid", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    test_every_declared_metric_is_printed()
    test_refuses_a_tree_without_sources()
    print("perfbench smoke test passed")
