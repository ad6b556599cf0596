"""Record the reference outputs that the benchmark compares against.

    python3 perfbench/record_reference.py

Runs every seed-independent operation of every workload at both sizes and
stores the CSV files it writes in ``perfbench/reference.json``. Re-record
only when an intended change of the printed numbers has been reviewed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402

SEED_DEPENDENT = {"simulate"}


def main() -> int:
    scratch = ROOT / ".perfbench_runs" / "reference"
    shutil.rmtree(scratch, ignore_errors=True)
    reference = {}
    for workload in w.WORKLOADS:
        for size in w.SIZES:
            raw = w.configs(workload, size, seed=0)
            for task, cfg_name in w.ops(workload):
                if task in SEED_DEPENDENT:
                    continue
                out = scratch / workload / size / task
                cfg_path = None
                if cfg_name is not None:
                    cfg_path = scratch / f"{workload}-{size}-{cfg_name}.json"
                    cfg_path.parent.mkdir(parents=True, exist_ok=True)
                    cfg_path.write_text(json.dumps(raw[cfg_name]))
                w.run_op(task, cfg_path and str(cfg_path), str(out), size)
                reference[f"{workload}/{size}/{task}"] = {
                    p.name: p.read_text()
                    for p in sorted(out.iterdir())
                    if p.suffix == ".csv"
                }
                print(workload, size, task, flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
