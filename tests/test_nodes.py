"""The per-task node table: each node built once, same results, wrong tables refused."""

import sys

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
    """Count kraus_family calls, wrapped in every rislab namespace that binds it."""
    original = mod.kraus_family
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

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
    s_nodes = num["s_nodes"] | 1  # lambda_derivatives_at_zero makes the grid odd
    # x0 adds its two direct reduced_map(m, 0.0) and reduced_map(m, 1.0) calls
    # and simulate the s grid of lambda_derivatives_at_zero.
    bounds = {
        "x0": chain + 2,
        "simulate": chain + s_nodes,
        "balance": _distinct_nodes([num["T"]]),
    }
    for task, bound in bounds.items():
        kraus_builds.clear()
        _run(task, tmp_path, sub=task)
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


def test_table_for_another_Y_is_refused():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    Y = np.diag([0.0, 1.0])
    with pytest.raises(ValueError, match="another counting observable"):
        fs.enumerate_measure(m, setup, 2, nodes=fs.ProtocolNodes(m, Y))
    with pytest.raises(ValueError, match="another counting observable"):
        mg.mgf_delta_y(m, setup, 2, 0.5, Y=Y, nodes=fs.ProtocolNodes(m))
    with pytest.raises(ValueError, match="another counting observable"):
        mg.mgf_pair(m, setup, 2, 0.5, 0.5, Y=2 * Y, nodes=fs.ProtocolNodes(m, Y))
    # an equal matrix is the same observable
    nodes = fs.ProtocolNodes(m, Y)
    assert mg.mgf_delta_y(m, setup, 2, 0.5, Y=Y.copy(), nodes=nodes) == (
        mg.mgf_delta_y(m, setup, 2, 0.5, Y=Y)
    )
    # L(s) comes from the default-Y kernel, so any table of the model serves
    assert np.array_equal(
        fs.evolved_state(m, setup.rho_i, 4, nodes=nodes),
        fs.evolved_state(m, setup.rho_i, 4),
    )
