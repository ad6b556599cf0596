"""rislab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload protocol-grid --seed 1 --seconds 50 --trace 0

Run from a checkout of the repository; the benchmark imports rislab from
the checkout's ``src/`` and writes only under ``.perfbench_runs/``.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
over fresh interpreters of ``import rislab`` + ``load_config``), ``job_s``
(median over the jobs run in ``--seconds``, after a warm-up) and
``peak_rss_mb`` (peak resident set after the first measured job). With
``--trace 1`` it runs one plain job and one job with every layer wrapped
(see ``tracing.py``) and reports the per-layer metrics. Every operation's
outputs are checked in both modes. ``--size smoke`` runs the workload at
the CLI tests' sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import rislab; "
    "from rislab.config import load_config; load_config(sys.argv[2]); "
    "print('ready', flush=True)"
)
OPS = ("spectrum", "lambda", "ldp", "adiabatic", "residual", "simulate", "balance", "x0")

CALLS = [
    "model.kraus_family", "model.joint_unitary", "model.reduced_map",
    "model.deformed_map", "linalg.SuperOperator.validate",
    "linalg.kraus_to_matrix", "linalg.hermitian_eig", "linalg.as_complex",
    "linalg.general_eig", "fullstats.step_operators", "fullstats.evolved_state",
    "fullstats.resolve_final_observable", "fullstats.balance_applicable",
    "fullstats.balance_rhs", "spectral.peripheral_decomposition",
    "spectral.invariant_state", "mgfldp.mgf_pair",
]
SELF_S = [
    "model.kraus_family", "model.reduced_map", "model.deformed_map",
    "linalg.SuperOperator.validate", "linalg.kraus_to_matrix",
    "linalg.hermitian_eig", "linalg.as_complex", "fullstats.step_operators",
    "fullstats.balance_rhs", "fullstats.enumerate_measure",
    "spectral.peripheral_decomposition", "spectral.invariant_state",
    "adiabatic.intertwiner", "adiabatic.theta_integral",
    "adiabatic.exact_deformed_chain", "mgfldp.LambdaEvaluator.init",
    "mgfldp.support_window", "mgfldp.legendre_transform",
    "mgfldp.lambda_derivatives_at_zero", "mgfldp.mgf_pair",
    "fullstats.sample_trajectories", "fullstats.rng", "fullstats.write_csv",
    "cli.task", "config.load_config",
]
PERCENTILES = ["model.kraus_family", "fullstats.step_operators"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def run_record(args, cfg_hashes) -> dict:
    """Versions, BLAS build and threads, machine and source identity."""
    import numpy
    import scipy

    def git(*cmd):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(
                ["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_hash": cfg_hashes,
    }


def _blas_threads():
    """Threads of the loaded OpenBLAS, when its library can be found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure_setup(cfg_path: Path) -> list[float]:
    """Wall time from launching a fresh interpreter to a loaded RunConfig."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_path)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.close()
        finally:
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up interpreter failed")
    return times


def layer_metrics(s, plain: dict, traced: dict, out_bytes: int) -> dict:
    """Per-layer metrics from a tracer summary and the two jobs' op times."""
    import tracing

    m = {}
    for n in CALLS:
        m[n + ".calls"] = (s.calls(n), "count")
    for n in SELF_S:
        m[n + ".self_s"] = (s.self_s(n), "s")
    for n in PERCENTILES:
        d = s.durations(n)
        m[n + ".p50_us"] = (tracing.percentile_us(d, 0.5), "us")
        m[n + ".tail_us"] = (tracing.percentile_us(d, tracing.tail_quantile(d.size)), "us")

    def hit_ratio(parent, child):
        calls = s.calls(parent)
        return 1.0 - s.child_calls(parent, child) / calls if calls else 0.0

    m["adiabatic.decomposition.hit_ratio"] = (
        hit_ratio("adiabatic.decomposition", "spectral.peripheral_decomposition"), "ratio")
    m["mgfldp.lambda.hit_ratio"] = (hit_ratio("mgfldp.lambda", "mgfldp.lambda_nodes"), "ratio")
    m["fullstats.rng.streams"] = (int(s.counters.get("fullstats.rng.streams", 0)), "count")
    m["fullstats.write_csv.bytes"] = (int(s.counters.get("fullstats.write_csv.bytes", 0)), "B")
    m["cli.output_bytes"] = (out_bytes, "B")
    m["trace.overhead_s"] = (sum(traced.values()) - sum(plain.values()), "s")
    for op in OPS:
        m[f"op.{op}.wall_s"] = (plain.get(op, 0.0), "s")
    return m


def _dir_bytes(path: Path) -> int:
    """Bytes the CLI tasks of one job wrote (``residual.csv`` is the benchmark's)."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file() and p.name != "residual.csv")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rislab" / "__init__.py").is_file():
        print(f"perfbench: no rislab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rislab

    if Path(rislab.__file__).resolve().parent != SRC / "rislab":
        print(f"perfbench: imported rislab from {rislab.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads as w
    from rislab import config

    if args.workload not in w.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run_dir = RUNS / f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    reference = json.loads((HERE / "reference.json").read_text())
    checker = w.Checker(reference)

    # Warm-up: every operation twice at the smoke size, which also checks
    # that a rerun writes byte-identical files.
    warm = w.Runner(args.workload, "smoke", args.seed, run_dir, checker)
    warm.job()
    warm.job()
    main_run = warm if args.size == "smoke" else w.Runner(
        args.workload, args.size, args.seed, run_dir, checker)
    record = run_record(args, {
        f"{size}/{name}": config.config_hash(raw)
        for size, r in (("smoke", warm), (args.size, main_run))
        for name, raw in r.raw.items()
    })

    metrics = {}
    if args.trace == 0:
        setup = measure_setup(Path(next(iter(main_run.paths.values()))))
        # Start another job only while it is projected to end within --seconds.
        # The peak resident set is read after the first job, so that it does
        # not depend on how many jobs fit in --seconds.
        start = time.perf_counter()
        jobs = [main_run.job()]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while (time.perf_counter() - start) * (len(jobs) + 1) / len(jobs) <= args.seconds:
            jobs.append(main_run.job())
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["job_s"] = (statistics.median(sum(j.values()) for j in jobs), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        record["setup_samples_s"] = setup
        record["jobs_s"] = jobs
    else:
        plain = main_run.job()
        tracer = tracing.Tracer()
        traced = main_run.job(tracer)
        jobs = [plain]
        out_bytes = _dir_bytes(run_dir / f"{args.size}-job{main_run.jobs}")
        summary = tracing.Summary(tracer)
        metrics = layer_metrics(summary, plain, traced, out_bytes)
        tracer.save(str(run_dir / "spans.npz"))
        record["jobs_s"] = [plain, traced]
        record["layers"] = summary.table()
        record["calls_by_op"] = summary.calls_by_op()

    attempted = warm.attempted + (main_run.attempted if main_run is not warm else 0)
    failures = warm.failures + (main_run.failures if main_run is not warm else [])
    failed = len(failures)
    record.update(metrics={k: v for k, (v, _) in metrics.items()},
                  attempted=attempted, failed=failed, failures=failures)
    records = RUNS / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (records / f"{stamp}-{run_dir.name}.json").write_text(json.dumps(record, indent=1, default=str))
    for sub in run_dir.glob("*-job*"):
        shutil.rmtree(sub)

    for f in failures:
        print("FAILED", f)
    for op in OPS:
        samples = [j[op] for j in jobs if op in j]
        if samples:
            print(f"op {op}: median {statistics.median(samples):.4f} s over {len(samples)} samples")
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
