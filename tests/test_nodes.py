"""The per-task node table: each node built once, same results, wrong tables refused."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from rislab import fullstats as fs
from rislab import mgfldp as mg
from rislab import model as mod
from test_cli import BASE, _run


def _distinct_nodes(Ts) -> int:
    return len({k / T for T in Ts for k in range(1, T + 1)})


@pytest.fixture
def kraus_builds(monkeypatch):
    """The nodes built through kraus_families, wrapped in every rislab namespace
    that binds it (kraus_family builds through it too)."""
    original = mod.kraus_families
    calls = []

    def counted(model, s_values):
        calls.extend(np.asarray(s_values, dtype=float).reshape(-1).tolist())
        return original(model, s_values)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rislab" or name.startswith("rislab.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    return calls


def test_cli_builds_each_node_once(tmp_path, kraus_builds):
    num = BASE["numeric"]
    chain = _distinct_nodes(num["T_list"])
    s_nodes = num["s_nodes"] | 1  # the Lambda evaluator makes the grid odd
    # x0 adds the node s = 0 of its rho_inv(0), read from its table (s = 1
    # is a chain node), and simulate the s grid of lambda_derivatives_at_zero.
    bounds = {
        "x0": chain + 1,
        "simulate": chain + s_nodes,
        "balance": _distinct_nodes([num["T"]]),
    }
    for task, bound in bounds.items():
        kraus_builds.clear()
        _run(task, tmp_path, sub=task)
        assert 0 < len(kraus_builds) <= bound, (task, len(kraus_builds), bound)


def test_protocol_tasks_build_each_s_once(tmp_path, kraus_builds):
    num = BASE["numeric"]
    s_nodes = num["s_nodes"] | 1
    # adiabatic: the exact chains' k/T, s = 0 and the theta grid of at least
    # 201 nodes with its centred-difference neighbours
    theta = max(201, max(num["T_list"]) + 1) | 1
    bounds = {
        "spectrum": num["s_nodes"],
        "lambda": s_nodes,
        "ldp": s_nodes,
        "adiabatic": _distinct_nodes(num["T_list"]) + 1 + 3 * theta,
    }
    for task, bound in bounds.items():
        kraus_builds.clear()
        _run(task, tmp_path, sub=task)
        assert len(set(kraus_builds)) == len(kraus_builds), task
        assert 0 < len(kraus_builds) <= bound, (task, len(kraus_builds), bound)


def test_shared_table_gives_identical_results():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    shared = fs.ProtocolNodes(m)
    fs.evolved_state(m, setup.rho_i, 5, nodes=shared)  # fills some nodes of T = 10
    for T in (10, 20):
        assert np.array_equal(
            fs.evolved_state(m, setup.rho_i, T, nodes=shared),
            fs.evolved_state(m, setup.rho_i, T),
        )
        assert mg.mgf_pair(m, setup, T, 0.5, -0.3, nodes=shared) == mg.mgf_pair(
            m, setup, T, 0.5, -0.3
        )
        a = fs.sample_trajectories(m, setup, T, 40, seed=2, nodes=shared)
        b = fs.sample_trajectories(m, setup, T, 40, seed=2)
        for field in ("a_i", "a_f", "delta_a", "delta_y", "varsigma", "probe_records"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_table_for_another_model_is_refused():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    other = fs.ProtocolNodes(mod.fd_model())
    with pytest.raises(ValueError, match="another model"):
        fs.evolved_state(m, setup.rho_i, 3, nodes=other)
    with pytest.raises(ValueError, match="another model"):
        mg.mgf_pair(m, setup, 3, 0.5, 0.5, nodes=other)
    with pytest.raises(ValueError, match="another model"):
        fs.enumerate_measure(m, setup, 2, nodes=other)


def test_custom_Y_table_builds_one_kernel_per_node(kraus_builds):
    """The reduced chain of a table counting another Y reads the table's kernels."""
    m = replace(mod.fd_model(), counting=lambda s: np.eye(2))
    fs.evolved_state(m, mod.gibbs_state(m.h_sys, m.beta(0.0)), 10)
    assert sorted(kraus_builds) == [k / 10 for k in range(1, 11)]


def test_balance_rhs_reads_Y_from_the_table():
    """With Y = I the fd probe state is not a function of Y: no balance."""
    m = replace(mod.fd_model(), counting=lambda s: np.eye(2))
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    nodes = fs.ProtocolNodes(m)
    meas = fs.enumerate_measure(m, setup, 2, nodes=nodes)
    assert not fs.balance_applicable(m, setup, 2, nodes=nodes)
    assert fs.balance_rhs(m, setup, meas, 2, nodes=nodes) is None


def test_Y_table_serves_every_chain():
    default = mod.fd_model()
    # twice the probe's diagonal: commutes with every probe state, and is
    # not the default beta(s) * h_env(s)
    Y = 2 * np.diag(np.diag(default.h_env(0.0)))
    m = replace(default, counting=lambda s: Y)
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    nodes = fs.ProtocolNodes(m)
    for T in (2, 3):
        meas = fs.enumerate_measure(m, setup, T, nodes=nodes)
        counts = meas.delta_y / 1.6
        assert np.abs(counts - np.round(counts)).max() < 1e-12
        for a1, a2 in ((0.5, -0.5), (-0.3, 0.7), (1.0, 0.0)):
            prod = mg.mgf_pair(m, setup, T, a1, a2, nodes=nodes)
            assert abs(prod - meas.pair_mgf(a1, a2)) < 1e-12
    # L(s) does not depend on Y: the Y kernel gives the default one's up to round-off
    got = fs.evolved_state(m, setup.rho_i, 4, nodes=nodes)
    want = fs.evolved_state(default, setup.rho_i, 4)
    assert np.abs(got - want).max() <= 1e-13
