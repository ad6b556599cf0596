import hashlib
import json

import numpy as np
import pytest

from rislab import config as cfg
from rislab.cli import main


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


def test_simulate_draws_once_for_every_T(tmp_path, monkeypatch):
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    _run("simulate", tmp_path)
    assert len(built) == 1


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
    for name in ("trajectories_T10.csv", "clt_hist_T20.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# SHA-256 of the BASE simulate outputs at seed 3, recorded (numpy 2.4.6)
# from the sampler that built one Philox stream per trajectory and applied
# every conditioned map at every step. A rewrite of the sampler that flips
# one sampled outcome changes them; a rerun of the same code cannot show that.
SIMULATE_SEED3_SHA256 = {
    "trajectories_T10.csv": "7c97bc5e0a785ec5c6d6fbd7eaa7f1830127d5193cdb7fd926fb889a25b6913f",
    "trajectories_T20.csv": "958969064e73c8ce12ab0102b87efaabf9a43bb77b290241152597daba04aaa0",
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
        ("numeric", "rho_i", [[1.0]], r"numeric\.rho_i"),
        ("numeric", "rho_i", [[0.5, 0.1], [0.0, 0.5]], r"numeric\.rho_i"),
        ("numeric", "rho_i", NOT_A_STATE, r"numeric\.rho_i"),
        ("numeric", "rho_i", [[0.5, 0.0], [0.0, 0.6]], r"numeric\.rho_i"),
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
        ("output", "write_csv", "false", r"output\.write_csv"),
        ("output", "directory", None, r"output\.directory"),
        ("output", "directory", "", r"output\.directory"),
    ],
    ids=[
        "T-zero", "T-fractional", "T_list-zero", "T_list-negative", "T_list-scalar",
        "T_list-empty", "n-zero", "n-bool", "s_nodes-one", "alpha-inf", "alpha-str",
        "alpha_grid-nan", "alpha_grid-count-zero", "tau-str", "tau-zero", "tau-inf",
        "rho_i-shape", "rho_i-not-hermitian", "rho_i-not-psd", "rho_i-trace",
        "constant-str", "constant-nan", "tanh_terms-short", "tanh_terms-inf",
        "poly-str", "write_csv-str", "directory-null", "directory-empty",
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
    ],
    ids=["dim_sys-str", "dim_env-fractional", "dim_sys-zero", "dim_sys-mismatch",
         "h_env-mismatch"],
)
def test_explicit_model_rejected(key, value, path):
    doc = {"model": dict(EXPLICIT_MODEL, **{key: value})}
    with pytest.raises(cfg.ConfigError, match=path):
        cfg.load_config(doc)


def test_numeric_accepted():
    doc = json.loads(json.dumps(BASE))
    doc["numeric"].update(T=3.0, rho_i=[[0.7, [0.1, 0.2]], [[0.1, -0.2], 0.3]])
    run = cfg.load_config(doc)
    assert run.T == 3 and isinstance(run.T, int)
    assert np.array_equal(run.rho_i, [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
