"""The per-node kernel against the independent routes in ``oracles``.

Coverage goes beyond the two 2x2 presets: random models, a degenerate
counting spectrum and a three-level system with three-level probes.
"""

import numpy as np
import pytest

from rislab import fullstats as fs
from rislab import model as mod
from rislab.linalg import outcome_groups

import oracles
from conftest import random_hermitian, random_small_model

TOL = 1e-12


def _model(rng, dim_sys, h_env):
    dim_env = h_env.shape[0]
    return mod.RISModel(
        dim_sys=dim_sys,
        dim_env=dim_env,
        h_sys=random_hermitian(rng, dim_sys),
        h_env=lambda s, _m=h_env: _m,
        coupling=lambda s, _m=random_hermitian(rng, dim_sys * dim_env): _m,
        beta=lambda s: 0.8 + s,
        tau=0.7,
    )


def _cases():
    rng = np.random.default_rng(2024)
    cases = [("fd", mod.fd_model()), ("rwa", mod.rwa_model())]
    cases += [(f"random{k}", random_small_model(rng)) for k in range(20)]
    degenerate = _model(rng, 2, np.diag([0.0, 1.0, 1.0]).astype(complex))
    cases.append(("degenerate-env3", degenerate))
    cases.append(("sys3-env3", _model(rng, 3, random_hermitian(rng, 3))))
    return cases


CASES = _cases()
S = 0.3


def _ids(cases):
    return [c[0] for c in cases]


def test_cases_cover_their_claims():
    by_name = dict(CASES)
    fam = mod.kraus_family(by_name["degenerate-env3"], S)
    # Y has eigenvalues beta * (0, 1, 1)
    assert outcome_groups(fam.y_eigenvalues).shape == (2, 3)
    assert by_name["sys3-env3"].dim_sys == 3


@pytest.mark.parametrize("name,m", CASES, ids=_ids(CASES))
def test_kraus_stack_matches_oracle(name, m):
    fam = mod.kraus_family(m, S)
    expected = oracles.kraus_operators(m, S)
    assert np.abs(np.stack(fam.kraus) - np.stack(expected)).max() <= TOL
    kron = np.stack([np.kron(K.conj(), K) for K in expected])
    assert np.abs(fam.kron - kron).max() <= TOL
    reduced = oracles.deformed_map_bare(m, S, 0.0)
    assert np.abs(mod.deformed_map(m, S, 0.0).matrix - reduced.matrix).max() <= TOL


@pytest.mark.parametrize("name,m", CASES, ids=_ids(CASES))
def test_kernel_equals_the_gibbs_state_route(name, m):
    """The kernel with xi's weights read off Y's eigenvalues against the one
    with xi^{1/2} = herm_power(gibbs_state(h_env, beta), 1/2): bitwise on the
    presets, to 1e-14 of each field's largest entry on every case."""
    got, want = mod.kraus_family(m, S), oracles.kraus_family_gibbs(m, S)
    assert np.array_equal(got.dy, want.dy)
    for f in ("kraus", "kron"):
        a, b = getattr(got, f), getattr(want, f)
        if name in ("fd", "rwa"):
            assert np.array_equal(a, b), f
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), f


@pytest.mark.parametrize("name,m", CASES, ids=_ids(CASES))
def test_step_maps_match_oracle(name, m):
    got = fs.step_operators(m, S)
    want = oracles.step_operators(m, S)
    assert got.forward.shape == want.forward.shape
    assert np.abs(got.forward - want.forward).max() <= TOL
    assert np.abs(got.backward - want.backward).max() <= TOL
    assert np.abs(got.y_values - want.y_values).max() <= TOL


@pytest.mark.parametrize("name,m", CASES, ids=_ids(CASES))
def test_step_maps_sum_to_the_kernel_maps(name, m):
    """sum_{IJ} forward = L(s) and sum_{IJ} backward = L^(-1)(s)^*, on a node stack.

    The backward maps weigh the kernel by xi_b / xi_a = e^{-dy}, as L^(-1)
    does, so both carry the same round-off; the tolerance is relative to
    the largest entry.
    """
    s = np.array([0.0, S, 1.0])
    fams = mod.kraus_families(m, s)
    steps = fs.step_operators(m, s, fams)
    for got, want in (
        (steps.forward.sum(axis=(1, 2)), fams.deformed_matrix(0.0)),
        (steps.backward.sum(axis=(1, 2)), fams.deformed_matrix(-1.0).conj().swapaxes(-1, -2)),
    ):
        assert np.abs(got - want).max() <= TOL * np.abs(want).max()


@pytest.mark.parametrize("name,m", CASES, ids=_ids(CASES))
def test_deformed_maps_match_oracle(name, m):
    """Both oracles need Y to commute with the probe state, as Y = beta * h_env does.

    The weights e^{alpha*dy} reach ~20 on the three-level model, so the
    tolerance is relative to the largest entry.
    """
    for alpha in (0.7, -1.3, 0.2 + 0.5j):
        L = mod.deformed_map(m, S, alpha).matrix
        tol = TOL * max(1.0, np.abs(L).max())
        bare = oracles.deformed_map_bare(m, S, alpha)
        assert np.abs(L - bare.matrix).max() <= tol
        adjoint = oracles.deformed_adjoint_map(m, S, alpha)
        assert np.abs(L.conj().T - adjoint.matrix).max() <= tol
