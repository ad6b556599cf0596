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


def test_config_explicit_model():
    doc = {
        "model": {
            "h_sys": [[0, 0], [0, [0.9, 0]]],
            "h_env": [[0, 0], [0, 0.8]],
            "coupling": [[0, 0, 0, 0], [0, 0, [0.5, 0], 0],
                         [0, [0.5, 0], 0, 0], [0, 0, 0, 0]],
            "tau": 0.5,
            "schedule": {"kind": "constant", "value": 1.0},
        }
    }
    run = cfg.load_config(doc)
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
