"""A fresh interpreter runs rislab on numpy alone.

numpy is rislab's only runtime dependency: no library route imports scipy,
tabulated schedules and ``general_eig`` included, and the CLT check's
Kolmogorov-Smirnov distance needs numpy and ``math.erfc`` only. Each case
runs in its own interpreter, since this test session has scipy loaded
already. There a ``sys.meta_path`` finder makes every scipy import raise
ImportError, so a route that still needs scipy fails the case, and the case
also checks that no scipy module was loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BLOCK_SCIPY = """
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked in this interpreter: {name}")
sys.meta_path.insert(0, BlockScipy())
"""

TABULATED = {"kind": "tabulated", "nodes": [0.0, 0.4, 1.0], "values": [1.0, 1.6, 2.2]}


def _run(code: str, tmp_path) -> list[str]:
    """Run ``code`` in a fresh interpreter with scipy blocked; return the
    scipy modules it loaded."""
    tail = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{BLOCK_SCIPY}\n{code}\n{tail}"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _config(tmp_path, schedule) -> str:
    doc = {
        "model": {"preset": "fd", "schedule": schedule},
        "numeric": {"s_nodes": 21, "T_list": [10, 20], "n": 50,
                    "alpha_grid": [-1.0, 1.0, 5]},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _every_task(config: str) -> str:
    return f"""
import rislab
from rislab.cli import TASKS, main
from rislab.config import load_config
load_config({config!r})
for task in TASKS:
    assert main([task, "--config", {config!r}, "--out", task]) == 0, task
"""


def test_import_and_tasks_load_no_scipy(tmp_path):
    assert _run(_every_task(_config(tmp_path, "beta1")), tmp_path) == []


def test_tasks_do_not_import_numpy_ma(tmp_path):
    """numpy 2.4's plain ``np.unique`` imports ``numpy.ma`` (12-15 ms and
    about 1 MB) for its masked-array check; no task takes that route."""
    code = _every_task(_config(tmp_path, "beta1")) + """
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    assert _run(code, tmp_path) == []


def test_tabulated_schedule_runs_every_task_without_scipy(tmp_path):
    config = _config(tmp_path, TABULATED)
    code = _every_task(config) + f"""
beta = load_config({config!r}).model.beta
assert beta(0.4) == 1.6 and beta(1.0) == 2.2
assert list(beta({TABULATED["nodes"]!r})) == {TABULATED["values"]!r}
"""
    assert _run(code, tmp_path) == []


def test_simulate_and_clt_check_load_no_scipy(tmp_path):
    config = _config(tmp_path, "beta1")
    code = f"""
import numpy as np
from rislab import mgfldp
from rislab.cli import main
from rislab.config import load_config
assert main(["simulate", "--config", {config!r}, "--out", "sim"]) == 0
dy = np.loadtxt("sim/trajectories_T20.csv", delimiter=",", skiprows=1, usecols=4)
d1, d2 = mgfldp.lambda_derivatives_at_zero(load_config({config!r}).model, 21)
out = mgfldp.clt_check(dy, 20, d1, d2)
assert 0 < out["ks_distance"] < 1 and out["mean_se"] > 0
"""
    assert _run(code, tmp_path) == []
