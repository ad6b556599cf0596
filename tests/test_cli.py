import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rislab import config as cfg
from rislab import fullstats as fs
from rislab import mgfldp as mg
from rislab import model as mod
from rislab.cli import TASKS, main


def _write(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


BASE = {
    "model": {"preset": "fd", "schedule": "beta1"},
    "numeric": {"s_nodes": 21, "T_list": [10, 20], "n": 50, "T": 2, "seed": 1,
                "alpha_grid": [-1.0, 1.0, 5]},
    "output": {"write_csv": True},
}


def _run(task, tmp_path, doc=BASE, sub="out"):
    out = tmp_path / sub
    rc = main([task, "--config", _write(tmp_path, doc), "--out", str(out)])
    assert rc == 0
    return out


def test_spectrum_task(tmp_path):
    out = _run("spectrum", tmp_path)
    rows = (out / "spectrum.csv").read_text().strip().split("\n")
    assert rows[0].split(",")[:3] == ["s", "beta", "spectral_radius"]
    assert len(rows) == 22
    # the physical map has unit spectral radius and period 1 everywhere
    for row in rows[1:]:
        parts = row.split(",")
        assert abs(float(parts[2]) - 1.0) < 1e-10
        assert parts[3] == "1"
    assert (out / "beta_curves.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["task"] == "spectrum"
    assert manifest["seed"] == 1
    assert "config_hash" in manifest


def test_manifest_records_the_versions(tmp_path):
    import rislab

    out = _run("lambda", tmp_path)
    versions = json.loads((out / "manifest.json").read_text())["versions"]
    assert versions == {
        "numpy": np.__version__,
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "rislab": rislab.__version__,
    }


def test_spectrum_writes_every_population(tmp_path):
    """A three-level system gets one rho_ii column per level, summing to 1."""
    x3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    model = {
        "h_sys": [[0, 0, 0], [0, 0.9, 0], [0, 0, 1.7]],
        "h_env": [[0, 0], [0, 0.8]],
        "coupling": (0.7 * np.kron(x3, [[0, 1], [1, 0]])).tolist(),
        "tau": 0.5,
    }
    out = _run("spectrum", tmp_path, dict(BASE, model=model))
    rows = (out / "spectrum.csv").read_text().strip().split("\n")
    assert rows[0].split(",")[4:] == ["rho_00", "rho_11", "rho_22"]
    assert len(rows) == 22
    for row in rows[1:]:
        populations = [float(p) for p in row.split(",")[4:]]
        assert abs(sum(populations) - 1.0) < 1e-12


def test_lambda_task(tmp_path):
    out = _run("lambda", tmp_path)
    rows = (out / "lambda.csv").read_text().strip().split("\n")
    assert len(rows) == 6
    alphas = [float(r.split(",")[0]) for r in rows[1:]]
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert alphas == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert abs(vals[2]) < 1e-12
    d = (out / "lambda_derivatives.csv").read_text().strip().split("\n")
    d1, d2 = map(float, d[1].split(","))
    assert 0.1 < d1 < 0.4 and 0.3 < d2 < 0.9


def test_ldp_task(tmp_path):
    out = _run("ldp", tmp_path)
    rows = (out / "lambda_star.csv").read_text().strip().split("\n")
    assert len(rows) == 32
    vals = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert np.all(np.isfinite(vals))
    assert vals[:, 1].min() > -1e-8


def test_simulate_task(tmp_path):
    out = _run("simulate", tmp_path)
    for T in (10, 20):
        traj = (out / f"trajectories_T{T}.csv").read_text().strip().split("\n")
        assert len(traj) == 51
        hist = (out / f"clt_hist_T{T}.csv").read_text().strip().split("\n")
        counts = sum(int(r.split(",")[2]) for r in hist[1:])
        assert counts <= 50


def test_simulate_writes_landauer_balance(tmp_path):
    """landauer.csv: one row per T, sigma_tot = delta_S + beta_heat, the
    library's total_entropy_production bit for bit."""
    out = _run("simulate", tmp_path)
    rows = (out / "landauer.csv").read_text().strip().split("\n")
    assert rows[0] == "T,delta_S,beta_heat,sigma_tot"
    run = cfg.load_config(BASE)
    rho_i = mod.gibbs_state(run.model.h_sys, run.model.beta(0.0))
    for row, T in zip(rows[1:], BASE["numeric"]["T_list"], strict=True):
        t, delta_s, heat, sigma = row.split(",")
        assert int(t) == T
        assert float(sigma) == float(delta_s) + float(heat)
        assert float(sigma) == fs.total_entropy_production(run.model, rho_i, T)


def test_landauer_rate_is_lambda_prime(tmp_path):
    """On fd the probes' heat grows like T * Lambda'(0): sigma_tot(800) / 800
    is within 1e-3 of Lambda'(0)."""
    doc = dict(BASE, numeric=dict(BASE["numeric"], T_list=[800], n=20, s_nodes=201))
    out = _run("simulate", tmp_path, doc)
    sigma = float((out / "landauer.csv").read_text().strip().split("\n")[1].split(",")[3])
    d1, _ = mg.lambda_derivatives_at_zero(cfg.load_config(doc).model, 201)
    assert abs(sigma / 800 - d1) < 1e-3


def test_simulate_draws_once_for_every_T(tmp_path, monkeypatch):
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    _run("simulate", tmp_path)
    assert len(built) == 1


def _one_full_draw(seed, n, T_list):
    """The uniforms of every T as one (max(T_list) + 2, n) draw."""
    return fs.trajectory_uniforms(seed, n, max(T_list) + 2)


def test_simulate_files_are_those_of_one_full_draw(tmp_path, monkeypatch):
    """T_list out of order and with a repeat, n over two fill chunks: the
    head and tail blocks give every file of one full draw, byte for byte."""
    doc = dict(BASE, numeric=dict(BASE["numeric"], T_list=[20, 3, 10, 20], n=300))
    blocks = _run("simulate", tmp_path, doc, sub="blocks")
    monkeypatch.setattr(fs, "UniformBlocks", _one_full_draw)
    full = _run("simulate", tmp_path, doc, sub="full")
    names = sorted(p.name for p in full.iterdir())
    assert names == sorted(p.name for p in blocks.iterdir())
    assert "trajectories_T20.csv" in names
    for name in names:
        assert (blocks / name).read_bytes() == (full / name).read_bytes(), name


def _simulate_peak(tmp_path, doc, sub):
    tracemalloc.start()
    try:
        _run("simulate", tmp_path, doc, sub=sub)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("T_list,head", [([10, 100], 12), ([60, 100], 64)])
def test_simulate_never_holds_every_row(tmp_path, monkeypatch, T_list, head):
    """At n 2 000 simulate peaks below its peak with one full (102, 2 000)
    draw by at least half the smaller block's bytes: it never holds the
    head and the tail block at once, not even while it draws the tail."""
    n = 2000
    doc = dict(
        BASE,
        numeric=dict(BASE["numeric"], T_list=T_list, n=n),
        output={"write_csv": False},
    )
    _run("simulate", tmp_path, doc, sub="warm")
    blocks = _simulate_peak(tmp_path, doc, "blocks")
    monkeypatch.setattr(fs, "UniformBlocks", _one_full_draw)
    full = _simulate_peak(tmp_path, doc, "full")
    smaller = min(head, 102 - head) * n * 8
    assert blocks < full - smaller // 2, (blocks, full)


def test_simulate_task_stationary_preset(tmp_path):
    """On rwa Lambda''(0) is round-off; the CLT bins follow the samples' own range."""
    doc = dict(BASE, model={"preset": "rwa", "schedule": "beta1"})
    out = _run("simulate", tmp_path, doc)
    for T in (10, 20):
        hist = (out / f"clt_hist_T{T}.csv").read_text().strip().split("\n")
        cells = np.array([[float(x) for x in r.split(",")] for r in hist[1:]])
        assert np.all(np.isfinite(cells))
        assert cells[:, 2].sum() == BASE["numeric"]["n"]


def test_adiabatic_task(tmp_path):
    out = _run("adiabatic", tmp_path)
    rows = (out / "adiabatic.csv").read_text().strip().split("\n")
    res = [float(r.split(",")[2]) for r in rows[1:]]
    assert res[0] > res[1] > 0


def test_balance_task(tmp_path):
    out = _run("balance", tmp_path)
    rows = (out / "balance.csv").read_text().strip().split("\n")
    applicable, sigma, defect = rows[1].split(",")
    assert applicable == "True"
    assert float(sigma) >= 0
    assert float(defect) < 1e-9
    assert (out / "measure.csv").exists()


def test_x0_task(tmp_path):
    doc = dict(BASE, model={"preset": "rwa", "schedule": "beta1"})
    out = _run("x0", tmp_path, doc)
    rows = (out / "x0.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 2 * 5
    errs = [float(r.split(",")[5]) for r in rows[1:]]
    assert max(errs) < 1.0


def test_reruns_byte_identical(tmp_path):
    out1 = _run("simulate", tmp_path, sub="a")
    out2 = _run("simulate", tmp_path, sub="b")
    for name in ("trajectories_T10.csv", "clt_hist_T20.csv", "landauer.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# A three-level system coupled to two-level probes, (d_sys, d_env) = (3, 2).
QUTRIT_MODEL = {
    "h_sys": [[0, 0, 0], [0, 0.9, 0], [0, 0, 1.7]],
    "h_env": [[0, 0], [0, 0.8]],
    "coupling": (0.7 * np.kron([[0, 1, 0], [1, 0, 1], [0, 1, 0]], [[0, 1], [1, 0]])).tolist(),
    "tau": 0.5,
}
QUTRIT_TASKS = ("spectrum", "lambda", "ldp", "simulate", "adiabatic", "balance")


def test_qutrit_tasks_rerun_byte_identical(tmp_path):
    """Every task but x0 (whose closed-form limit holds for stationary models
    only) on a qutrit system at smoke size: each writes its manifest and a
    rerun writes the same bytes."""
    doc = dict(BASE, model=QUTRIT_MODEL)
    for task in QUTRIT_TASKS:
        first, again = _run(task, tmp_path, doc, f"{task}-a"), _run(task, tmp_path, doc, f"{task}-b")
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes(), (task, name)
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["task"] == task
        assert manifest["config_hash"] == cfg.config_hash(doc)
    assert "rho_22" in (tmp_path / "spectrum-a" / "spectrum.csv").read_text().split("\n")[0]
    landauer = (tmp_path / "simulate-a" / "landauer.csv").read_text().strip().split("\n")
    assert len(landauer) == 1 + len(BASE["numeric"]["T_list"])
    balance = (tmp_path / "balance-a" / "balance.csv").read_text().strip().split("\n")[1]
    assert balance.split(",")[0] == "True"


def test_python_dash_m_runs_the_cli(tmp_path):
    """``python -m rislab`` with src on the path is the CLI: same exit code,
    same bytes as ``cli.main``."""
    config = _write(tmp_path, BASE)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "rislab", "spectrum", "--config", config, "--out", str(tmp_path / "m")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    direct = _run("spectrum", tmp_path, sub="direct")
    for name in ("spectrum.csv", "beta_curves.csv", "manifest.json"):
        assert (tmp_path / "m" / name).read_bytes() == (direct / name).read_bytes(), name


# SHA-256 of the BASE simulate outputs at seed 3, recorded (numpy 2.4.6)
# from the sampler that built one Philox stream per trajectory and applied
# every conditioned map at every step. A rewrite of the sampler that flips
# one sampled outcome changes them; a rerun of the same code cannot show that.
# The trajectories digests were re-recorded when rho_f became an ordered
# product of the chain: its round-off moved a_f, delta_a and varsigma by
# <= 2.2e-15 relative, while trajectory_id, a_i and delta_y stayed
# byte-identical (no sampled outcome flipped) and the clt_hist files kept
# their digests.
SIMULATE_SEED3_SHA256 = {
    "trajectories_T10.csv": "2bf34df8777ad600af80bf14e293e9856bb2aec64d0543bbc0cb6ad3c0091cd0",
    "trajectories_T20.csv": "97d52bd4fda7d34f466eba9a72b61f6aa98ac67af55c048c391559ba8a95a7fa",
    "clt_hist_T10.csv": "3a4ab232f6f5175fbd4856e2ab91fea81e04efff9808f5453efeefe7bc48212c",
    "clt_hist_T20.csv": "9f5806fc471eb7b3a6fb19c198a837b7ba5dc000aa00c0cc36cdeda8c93f2abb",
}


def test_simulate_outputs_match_recorded_digests(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", "--config", _write(tmp_path, BASE), "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    for name, want in SIMULATE_SEED3_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name


def test_seed_override(tmp_path):
    out1 = _run("simulate", tmp_path, sub="a")
    out = tmp_path / "c"
    rc = main(["simulate", "--config", _write(tmp_path, BASE), "--seed", "9",
               "--out", str(out)])
    assert rc == 0
    assert (out1 / "trajectories_T10.csv").read_bytes() != (
        out / "trajectories_T10.csv"
    ).read_bytes()
    assert json.loads((out / "manifest.json").read_text())["seed"] == 9


def test_config_defaults_and_hash():
    run = cfg.load_config({"model": {"preset": "fd"}})
    assert run.s_nodes == 201
    assert run.seed == 0
    assert "numeric.s_nodes" in run.defaults_used
    h1 = cfg.config_hash({"a": 1, "b": 2})
    h2 = cfg.config_hash({"b": 2, "a": 1})
    assert h1 == h2 and len(h1) == 64


EXPLICIT_MODEL = {
    "h_sys": [[0, 0], [0, [0.9, 0]]],
    "h_env": [[0, 0], [0, 0.8]],
    "coupling": [[0, 0, 0, 0], [0, 0, [0.5, 0], 0], [0, [0.5, 0], 0, 0], [0, 0, 0, 0]],
    "tau": 0.5,
}


def test_config_explicit_model():
    schedule = {"kind": "constant", "value": 1.0}
    run = cfg.load_config({"model": dict(EXPLICIT_MODEL, schedule=schedule)})
    assert run.model.dim_sys == 2
    assert abs(run.model.beta(0.7) - 1.0) < 1e-15
    assert abs(run.model.h_sys[1, 1] - 0.9) < 1e-15


def test_config_error_paths():
    with pytest.raises(cfg.ConfigError, match="model"):
        cfg.load_config({})
    with pytest.raises(cfg.ConfigError, match="preset"):
        cfg.load_config({"model": {"preset": "nope"}})
    with pytest.raises(cfg.ConfigError, match="model.tau"):
        cfg.load_config(
            {"model": {"h_sys": [[0]], "h_env": [[0]], "coupling": [[0]]}}
        )
    with pytest.raises(cfg.ConfigError, match=r"\[re, im\]"):
        cfg.parse_matrix([[{"re": 1}]], "model.h_sys")
    with pytest.raises(cfg.ConfigError, match="square"):
        cfg.parse_matrix([[0, 1]], "model.h_sys")
    with pytest.raises(cfg.ConfigError, match="schedule"):
        cfg.parse_schedule("beta3", "model.schedule")
    with pytest.raises(cfg.ConfigError, match="alpha_grid"):
        cfg.load_config(
            {"model": {"preset": "fd"}, "numeric": {"alpha_grid": [0, 1]}}
        )
    with pytest.raises(cfg.ConfigError, match="counting"):
        cfg.load_config({"model": {"preset": "fd", "counting": "hE"}})


def test_schedule_parsing_kinds():
    s = cfg.parse_schedule({"kind": "tanh_poly", "tanh_terms": [[1.0, 2.0]],
                            "poly": [0.5]}, "p")
    assert abs(s(0.0) - 0.5) < 1e-15
    t = cfg.parse_schedule(
        {"kind": "tabulated", "nodes": [0, 0.5, 1], "values": [1, 2, 1]}, "p"
    )
    assert abs(t(0.5) - 2.0) < 1e-12
    with pytest.raises(cfg.ConfigError):
        cfg.parse_schedule({"kind": "tabulated", "nodes": [0], "values": []}, "p")


@pytest.mark.parametrize(
    "nodes,values",
    [
        ([0, 0.5, 0.5, 1], [1, 2, 2, 1]),
        ([0, 1, 0.5], [1, 2, 1]),
        ([0, float("inf")], [1, 2]),
        ([0, 1], [1, float("nan")]),
        ([0.5], [1]),
    ],
    ids=["repeated-node", "decreasing", "inf-node", "nan-value", "one-node"],
)
def test_tabulated_schedule_rejected(nodes, values):
    doc = {"kind": "tabulated", "nodes": nodes, "values": values}
    with pytest.raises(cfg.ConfigError, match=r"model\.schedule"):
        cfg.parse_schedule(doc, "model.schedule")


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_seed_rejected(seed):
    doc = {"model": {"preset": "fd"}, "numeric": {"seed": seed}}
    with pytest.raises(cfg.ConfigError, match=r"numeric\.seed"):
        cfg.load_config(doc)


def test_seed_override_rejected(tmp_path):
    with pytest.raises(cfg.ConfigError, match="--seed"):
        main(["simulate", "--config", _write(tmp_path, BASE), "--seed", "-1",
              "--out", str(tmp_path / "out")])


NOT_A_STATE = [[0.5, 0.6], [0.6, 0.5]]  # eigenvalues 1.1 and -0.1
# The largest double: finite, but 0.5 (M + M*) overflows on it.
DOUBLE_MAX = 1.7976931348623157e308


@pytest.mark.parametrize(
    "section,key,value,path",
    [
        ("numeric", "T", 0, r"numeric\.T:"),
        ("numeric", "T", 2.5, r"numeric\.T:"),
        ("numeric", "T_list", [0], r"numeric\.T_list\[0\]"),
        ("numeric", "T_list", [10, -20], r"numeric\.T_list\[1\]"),
        ("numeric", "T_list", 10, r"numeric\.T_list:"),
        ("numeric", "T_list", [], r"numeric\.T_list:"),
        ("numeric", "n", 0, r"numeric\.n:"),
        ("numeric", "n", True, r"numeric\.n:"),
        ("numeric", "s_nodes", 1, r"numeric\.s_nodes"),
        ("numeric", "alpha", float("inf"), r"numeric\.alpha:"),
        ("numeric", "alpha", "x", r"numeric\.alpha:"),
        ("numeric", "alpha_grid", [-1.0, float("nan"), 5], r"numeric\.alpha_grid\[1\]"),
        ("numeric", "alpha_grid", [-1.0, 1.0, 0], r"numeric\.alpha_grid\[2\]"),
        ("model", "tau", "x", r"model\.tau"),
        ("model", "tau", 0, r"model\.tau"),
        ("model", "tau", float("inf"), r"model\.tau"),
        ("model", "tau", 10**400, r"model\.tau"),
        ("numeric", "alpha", 10**400, r"numeric\.alpha:"),
        ("numeric", "rho_i", [[1.0]], r"numeric\.rho_i"),
        ("numeric", "rho_i", [[0.5, 0.1], [0.0, 0.5]], r"numeric\.rho_i"),
        ("numeric", "rho_i", NOT_A_STATE, r"numeric\.rho_i"),
        ("numeric", "rho_i", [[0.5, 0.0], [0.0, 0.6]], r"numeric\.rho_i: trace 1\.1 is not 1$"),
        ("numeric", "rho_i", [[DOUBLE_MAX, 0], [0, 0]], r"numeric\.rho_i: .*not finite"),
        ("numeric", "rho_i", [[True, 0], [0, 0]], r"numeric\.rho_i\[0\]\[0\]"),
        ("model", "schedule", {"kind": "constant", "value": "x"},
         r"model\.schedule\.value"),
        ("model", "schedule", {"kind": "constant", "value": float("nan")},
         r"model\.schedule\.value"),
        ("model", "schedule", {"kind": "tanh_poly", "tanh_terms": [[1]]},
         r"model\.schedule\.tanh_terms\[0\]"),
        ("model", "schedule", {"kind": "tanh_poly", "tanh_terms": [[1, float("inf")]]},
         r"model\.schedule\.tanh_terms\[0\]\[1\]"),
        ("model", "schedule", {"kind": "tanh_poly", "poly": [0.5, "x"]},
         r"model\.schedule\.poly\[1\]"),
        ("model", "schedule", {"kind": "tanh_poly", "poly": [0.5, 10**400]},
         r"model\.schedule\.poly\[1\]"),
        ("output", "write_csv", "false", r"output\.write_csv"),
        ("output", "directory", None, r"output\.directory"),
        ("output", "directory", "", r"output\.directory"),
    ],
    ids=[
        "T-zero", "T-fractional", "T_list-zero", "T_list-negative", "T_list-scalar",
        "T_list-empty", "n-zero", "n-bool", "s_nodes-one", "alpha-inf", "alpha-str",
        "alpha_grid-nan", "alpha_grid-count-zero", "tau-str", "tau-zero", "tau-inf",
        "tau-beyond-doubles", "alpha-beyond-doubles",
        "rho_i-shape", "rho_i-not-hermitian", "rho_i-not-psd", "rho_i-trace",
        "rho_i-beyond-hermitian-part", "rho_i-bool",
        "constant-str", "constant-nan", "tanh_terms-short", "tanh_terms-inf",
        "poly-str", "poly-beyond-doubles", "write_csv-str", "directory-null", "directory-empty",
    ],
)
def test_numeric_rejected(section, key, value, path):
    doc = json.loads(json.dumps(BASE))
    doc[section][key] = value
    with pytest.raises(cfg.ConfigError, match=path):
        cfg.load_config(doc)


@pytest.mark.parametrize(
    "key,value,path",
    [
        ("dim_sys", "a", r"model\.dim_sys"),
        ("dim_env", 1.5, r"model\.dim_env"),
        ("dim_sys", 0, r"model\.dim_sys"),
        ("dim_sys", 1, r"model\.h_sys"),
        ("h_env", [[0, 0, 0], [0, 0.8, 0], [0, 0, 1.6]], r"model\.coupling"),
        ("h_sys", [[0, 1], [0, 0.9]], r"model\.h_sys: .*not Hermitian"),
        ("h_env", [[0, [0, 0.2]], [[0, 0.2], 0.8]], r"model\.h_env: .*not Hermitian"),
        ("coupling", [[0, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.4, 0, 0], [0, 0, 0, 0]],
         r"model\.coupling: .*not Hermitian"),
        ("h_env", [[0, 0], [0, float("nan")]], r"model\.h_env\[1\]\[1\]: .*finite"),
        ("h_sys", [[0, 0], [0, [0.9, float("inf")]]], r"model\.h_sys\[1\]\[1\]: .*finite"),
        ("h_env", [[0, 10**400], [0, 0.8]], r"model\.h_env\[0\]\[1\]: .*finite"),
        ("h_sys", [[True, 0], [0, [0.9, 0]]], r"model\.h_sys\[0\]\[0\]: .*finite"),
        ("h_sys", [[0, 0], [0, [True, 0]]], r"model\.h_sys\[1\]\[1\]: .*finite"),
        ("h_sys", [[0, 0], [0, DOUBLE_MAX]], r"model\.h_sys: .*not finite"),
        ("h_env", [[DOUBLE_MAX, 0], [0, 0.8]], r"model\.h_env: .*not finite"),
        ("coupling", [[0, 0, 0, 0], [0, 0, [DOUBLE_MAX, 0], 0], [0, [DOUBLE_MAX, 0], 0, 0],
                      [0, 0, 0, DOUBLE_MAX]], r"model\.coupling: .*not finite"),
        # anti-Hermitian, with a Hermitian part of 0 but moduli beyond the doubles
        ("h_sys", [[0, [1.3e308, 1.3e308]], [[-1.3e308, 1.3e308], 0]],
         r"model\.h_sys: .*not finite"),
    ],
    ids=["dim_sys-str", "dim_env-fractional", "dim_sys-zero", "dim_sys-mismatch",
         "h_env-mismatch", "h_sys-not-hermitian", "h_env-not-hermitian",
         "coupling-not-hermitian", "h_env-nan", "h_sys-infinity", "h_env-beyond-doubles",
         "h_sys-bool", "h_sys-bool-part", "h_sys-beyond-hermitian-part",
         "h_env-beyond-hermitian-part", "coupling-beyond-hermitian-part",
         "h_sys-beyond-modulus"],
)
def test_explicit_model_rejected(key, value, path):
    doc = {"model": dict(EXPLICIT_MODEL, **{key: value})}
    with pytest.raises(cfg.ConfigError, match=path):
        cfg.load_config(doc)


def test_qutrit_state_whose_trace_overflows_rejected():
    """Three diagonal entries of 8e307 have a finite Hermitian part but a
    trace beyond the doubles."""
    doc = json.loads(json.dumps(dict(BASE, model=QUTRIT_MODEL)))
    doc["numeric"]["rho_i"] = np.diag([8e307] * 3).tolist()
    with pytest.raises(cfg.ConfigError, match=r"numeric\.rho_i: trace inf is not 1"):
        cfg.load_config(doc)


def test_numeric_accepted():
    doc = json.loads(json.dumps(BASE))
    doc["numeric"].update(T=3.0, rho_i=[[0.7, [0.1, 0.2]], [[0.1, -0.2], 0.3]])
    run = cfg.load_config(doc)
    assert run.T == 3 and isinstance(run.T, int)
    assert np.array_equal(run.rho_i, [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])


def test_integer_beyond_int64_reads_as_its_double():
    """A JSON integer is read as the double it rounds to, also past 2**64."""
    run = cfg.load_config({"model": {"preset": "fd", "tau": 10**20}})
    assert run.model.tau == 1e20 and isinstance(run.model.tau, float)


def _with(section, **keys):
    """BASE with keys added to one of its sections."""
    doc = json.loads(json.dumps(BASE))
    doc[section].update(keys)
    return doc


@pytest.mark.parametrize(
    "doc,path",
    [
        ({**BASE, "modle": {"preset": "fd"}}, "modle"),
        (_with("model", shedule="beta2"), r"model\.shedule"),
        (_with("numeric", T_lsit=[5]), r"numeric\.T_lsit"),
        (_with("output", write_cvs=False), r"output\.write_cvs"),
        (_with("model", schedule={"kind": "constant", "value": 1.0, "valeu": 2.0}),
         r"model\.schedule\.valeu"),
        (_with("model", schedule={"kind": "tanh_poly", "tanh_term": [[1.0, 2.0]]}),
         r"model\.schedule\.tanh_term"),
        (_with("model", schedule={"kind": "tabulated", "nodes": [0, 1], "values": [1, 2],
                                  "value": 1.0}),
         r"model\.schedule\.value"),
        ({"model": {"preset": "fd", "shedule": "beta2"},
          "numeric": {"T_lsit": [5], "s_node": 3}, "output": {"write_cvs": False}},
         r"model\.shedule"),
    ],
    ids=["top-level", "model", "numeric", "output", "constant", "tanh_poly",
         "tabulated", "first-of-many"],
)
def test_unknown_key_refused(doc, path):
    """A misspelt key is refused at its path, not read as its default."""
    with pytest.raises(cfg.ConfigError, match=rf"^{path}: unknown key$"):
        cfg.load_config(doc)


PURE_STATE = [[1, 0], [0, 0]]


@pytest.mark.parametrize("task", ["simulate", "balance", "x0"])
def test_entropic_tasks_refuse_a_pure_initial_state(tmp_path, task):
    """A_i = -log rho_i needs a faithful rho_i: a pure one is refused at its
    path, naming its smallest eigenvalue, before any output is written."""
    doc = _with("numeric", rho_i=PURE_STATE)
    out = tmp_path / "out"
    with pytest.raises(cfg.ConfigError, match=r"^numeric\.rho_i: .*eigenvalue -?0\.000e\+00"):
        main([task, "--config", _write(tmp_path, doc), "--out", str(out)])
    assert list(out.iterdir()) == []


def test_adiabatic_task_runs_a_pure_initial_state(tmp_path):
    out = _run("adiabatic", tmp_path, _with("numeric", rho_i=PURE_STATE))
    rows = (out / "adiabatic.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + len(BASE["numeric"]["T_list"])


def test_readme_config_and_task_list_match_the_cli():
    """The README's example config loads, and its "Tasks:" sentence names
    the CLI's tasks in their order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    cfg.load_config(json.loads(block))
    sentence = re.search(r"^Tasks: (.*?)\.\s", readme, re.S | re.M).group(1)
    assert tuple(re.findall(r"`(\w+)`", sentence)) == TASKS
