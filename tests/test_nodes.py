"""The per-task node table: each node built once, same results, wrong tables refused."""

from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from rislab import fullstats as fs
from rislab import mgfldp as mg
from rislab import model as mod

import oracles
from conftest import close, wrap_everywhere
from test_cli import BASE, _run


def _distinct_nodes(Ts) -> int:
    return len({k / T for T in Ts for k in range(1, T + 1)})


@pytest.fixture
def step_builds(monkeypatch):
    """The node arguments of every step_operators call."""
    calls = []
    wrap_everywhere(monkeypatch, fs.step_operators, calls.append)
    return calls


@pytest.fixture
def evolved_states(monkeypatch):
    """The initial states of every evolved_state call."""
    calls = []
    wrap_everywhere(monkeypatch, fs.evolved_state, calls.append)
    return calls


@pytest.fixture
def backward_builds(monkeypatch):
    """One entry per build of a step stack's backward maps."""
    calls = []
    original = fs.StepOperators.backward.func

    def counted(steps):
        calls.append(steps.forward.shape)
        return original(steps)

    prop = cached_property(counted)
    prop.__set_name__(fs.StepOperators, "backward")
    monkeypatch.setattr(fs.StepOperators, "backward", prop)
    return calls


def test_cli_builds_each_node_once(tmp_path, kraus_builds):
    num = BASE["numeric"]
    chain = _distinct_nodes(num["T_list"])
    s_nodes = num["s_nodes"] | 1  # the Lambda evaluator makes the grid odd
    # x0 adds the node s = 0 of its rho_inv(0), built alone (s = 1 is a
    # chain node), and simulate the s grid of lambda_derivatives_at_zero.
    bounds = {
        "x0": chain + 1,
        "simulate": chain + s_nodes,
        "balance": _distinct_nodes([num["T"]]),
    }
    for task, bound in bounds.items():
        kraus_builds.clear()
        _run(task, tmp_path, sub=task)
        assert 0 < len(kraus_builds) <= bound, (task, len(kraus_builds), bound)


def test_cli_builds_step_maps_once_per_task(tmp_path, step_builds):
    """simulate and balance build one step stack over their table; x0 none."""
    for task, builds in {"simulate": 1, "balance": 1, "x0": 0}.items():
        step_builds.clear()
        _run(task, tmp_path, sub=task)
        assert len(step_builds) == builds, (task, len(step_builds))


def test_cli_builds_backward_maps_only_for_balance(tmp_path, backward_builds):
    """The sampler reads forward maps alone; enumeration builds the backward ones once."""
    for task, builds in {"simulate": 0, "balance": 1, "x0": 0}.items():
        backward_builds.clear()
        _run(task, tmp_path, sub=task)
        assert len(backward_builds) == builds, (task, len(backward_builds))


def test_cli_resolves_each_final_state_once(tmp_path, evolved_states):
    """simulate and x0 evolve rho_i once per T; balance twice (enumeration,
    then the right-hand side, which hands its rho_f to the applicability check)."""
    n_T = len(BASE["numeric"]["T_list"])
    for task, bound in {"simulate": n_T, "balance": 2, "x0": n_T}.items():
        evolved_states.clear()
        _run(task, tmp_path, sub=task)
        assert 0 < len(evolved_states) <= bound, (task, len(evolved_states), bound)


def test_protocol_nodes_nest():
    """Node m*k of m*N is node k of N, bitwise, so grids whose sizes divide
    each other share their nodes; the ends are exactly 0 and 1."""
    for N in range(1, 61):
        nodes = mod.protocol_nodes(N)
        assert nodes.size == N + 1 and nodes[0] == 0.0 and nodes[-1] == 1.0
        for m in range(2, 9):
            assert np.array_equal(mod.protocol_nodes(m * N)[::m], nodes), (N, m)


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
    shared = fs.ProtocolNodes(m, (10, 20))
    # T = 5 is not in the list, but its chain is every other node of T = 10
    assert np.array_equal(shared.chain(5), shared.chain(10)[1::2])
    assert np.array_equal(
        fs.evolved_state(m, setup.rho_i, 5, nodes=shared),
        fs.evolved_state(m, setup.rho_i, 5),
    )
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


@pytest.mark.parametrize("make", [mod.fd_model, mod.rwa_model])
def test_chain_walks_equal_the_reduced_map_walk(make):
    """The table's chain products equal applying each node's SuperOperator
    to round-off; the entropy production, one ordered product of jets,
    equals the per-step walk of the Landauer oracle to 1e-12 relative."""
    m = make()
    rho_i = mod.gibbs_state(m.h_sys, m.beta(0.0))
    T = 25
    rho = np.asarray(rho_i, dtype=complex)
    for k in range(1, T + 1):
        rho = mod.reduced_map(m, k / T).apply(rho)
    assert close(fs.evolved_state(m, rho_i, T), rho)
    sigma = oracles.step_productions(m, rho_i, T).sum()
    assert abs(fs.total_entropy_production(m, rho_i, T) - sigma) <= 1e-12 * abs(sigma)


def test_table_for_another_model_is_refused():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    other = fs.ProtocolNodes(mod.fd_model(), (2, 3))
    with pytest.raises(ValueError, match="another model"):
        fs.evolved_state(m, setup.rho_i, 3, nodes=other)
    with pytest.raises(ValueError, match="another model"):
        mg.mgf_pair(m, setup, 3, 0.5, 0.5, nodes=other)
    with pytest.raises(ValueError, match="another model"):
        fs.enumerate_measure(m, setup, 2, nodes=other)
    # a T whose nodes the table does not hold: 1/4 is not among 1/3, 1/2, 2/3, 1
    own = fs.ProtocolNodes(m, (2, 3))
    with pytest.raises(ValueError, match="T=4"):
        fs.evolved_state(m, setup.rho_i, 4, nodes=own)
    with pytest.raises(ValueError, match="T=4"):
        mg.mgf_pair(m, setup, 4, 0.5, 0.5, nodes=own)
    with pytest.raises(ValueError, match="T=4"):
        fs.sample_trajectories(m, setup, 4, 5, seed=0, nodes=own)


def test_chain_whose_outcome_grouping_changes():
    """Y = beta(s) h_env(s) vanishes at s = 1/2 and has two outcomes at s = 1.

    The walkers that need step maps refuse the chain, naming the node; the
    reduced and deformed chains do not need them and still work.
    """
    m = replace(mod.fd_model(), h_env=lambda s: np.diag([0.0, 0.8 * (2 * s - 1)]))
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    with pytest.raises(fs.FullStatsError, match="grouping of Y at s=1.0"):
        fs.enumerate_measure(m, setup, 2)
    with pytest.raises(fs.FullStatsError, match="grouping of Y at s=1.0"):
        fs.sample_trajectories(m, setup, 2, 10, seed=0)
    rho_f = fs.evolved_state(m, setup.rho_i, 2)
    assert abs(np.trace(rho_f) - 1.0) < 1e-12
    assert abs(mg.mgf_pair(m, setup, 2, 0.0, 0.0) - 1.0) < 1e-12


def test_grouping_refusal_names_the_first_moved_node():
    """Y vanishes on [1/2, 1]: two outcomes at s = 1/4, one from s = 1/2 on."""
    m = replace(mod.fd_model(), h_env=lambda s: np.diag([0.0, 0.8 * min(2 * s - 1, 0.0)]))
    with pytest.raises(fs.FullStatsError, match=r"Y at s=0\.5 differs from that at s=0\.25"):
        fs.step_operators(m, np.arange(1, 5) / 4)
    steps = fs.step_operators(m, np.array([0.5, 0.75, 1.0]))
    assert steps.y_values.shape == (3, 1)


def test_Y_table_serves_every_chain():
    """One table of the nodes of T = 2, 3, 4 serves each chain's enumeration,
    MGF and reduced walk as a table of that chain alone does."""
    m = mod.rwa_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    nodes = fs.ProtocolNodes(m, (2, 3, 4))
    for T in (2, 3):
        meas = fs.enumerate_measure(m, setup, T, nodes=nodes)
        assert np.array_equal(meas.p_forward, fs.enumerate_measure(m, setup, T).p_forward)
        for a1, a2 in ((0.5, -0.5), (-0.3, 0.7), (1.0, 0.0)):
            prod = mg.mgf_pair(m, setup, T, a1, a2, nodes=nodes)
            assert abs(prod - meas.pair_mgf(a1, a2)) < 1e-12
    got = fs.evolved_state(m, setup.rho_i, 4, nodes=nodes)
    assert np.array_equal(got, fs.evolved_state(m, setup.rho_i, 4))
