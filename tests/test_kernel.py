"""The per-node kernel against the independent routes in ``oracles``.

Coverage goes beyond the two 2x2 presets: random models, a degenerate
counting spectrum, a counting observable that does not commute with the
probe state (also on a degenerate outcome), and a three-level system with
three-level probes.
"""

from dataclasses import replace

import numpy as np
import pytest

from rislab import fullstats as fs
from rislab import model as mod

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


def _counting(m, Y):
    """The model m counting the fixed probe observable Y at every node."""
    return replace(m, counting=lambda s: Y)


def _cases():
    rng = np.random.default_rng(2024)
    cases = [("fd", mod.fd_model()), ("rwa", mod.rwa_model())]
    cases += [(f"random{k}", random_small_model(rng)) for k in range(20)]
    degenerate = _model(rng, 2, np.diag([0.0, 1.0, 1.0]).astype(complex))
    cases.append(("degenerate-env3", degenerate))
    cases.append(
        ("noncommuting-Y", _counting(random_small_model(rng), random_hermitian(rng, 2)))
    )
    cases.append(("sys3-env3", _model(rng, 3, random_hermitian(rng, 3))))
    # a degenerate outcome whose block of the probe state is not diagonal
    V = np.linalg.qr(random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3))[0]
    Y = V @ np.diag([0.0, 1.0, 1.0]) @ V.conj().T
    m = _model(rng, 2, random_hermitian(rng, 3))
    cases.append(("degenerate-noncommuting-Y", _counting(m, 0.5 * (Y + Y.conj().T))))
    return cases


CASES = _cases()
COMMUTING = [c for c in CASES if c[1].counting is None]
S = 0.3


def _ids(cases):
    return [c[0] for c in cases]


def test_cases_cover_their_claims():
    by_name = dict(CASES)
    for name in ("noncommuting-Y", "degenerate-noncommuting-Y"):
        m = by_name[name]
        Y, xi = m.counting(S), mod.probe_state(m, S)
        assert np.abs(Y @ xi - xi @ Y).max() > 1e-2
    assert mod.kraus_family(m, S).groups.shape == (2, 3)
    fam = mod.kraus_family(by_name["degenerate-env3"], S)
    assert fam.groups.shape == (2, 3)  # Y has eigenvalues beta * (0, 1, 1)
    assert by_name["sys3-env3"].dim_sys == 3


@pytest.mark.parametrize("name,m", CASES, ids=_ids(CASES))
def test_kraus_stack_matches_oracle(name, m):
    fam = mod.kraus_family(m, S)
    expected = oracles.kraus_operators(m, S)
    assert np.abs(np.stack(fam.kraus) - np.stack(expected)).max() <= TOL
    kron = np.stack([np.kron(K.conj(), K) for K in expected])
    assert np.abs(fam.kron - kron).max() <= TOL
    # alpha = 0 needs no commutation of Y with the probe state
    reduced = oracles.deformed_map_bare(m, S, 0.0)
    assert np.abs(mod.deformed_map(m, S, 0.0).matrix - reduced.matrix).max() <= TOL


@pytest.mark.parametrize("name,m", CASES, ids=_ids(CASES))
def test_step_maps_match_oracle(name, m):
    got = fs.step_operators(m, S)
    want = oracles.step_operators(m, S)
    assert got.forward.shape == want.forward.shape
    assert np.abs(got.forward - want.forward).max() <= TOL
    assert np.abs(got.backward - want.backward).max() <= TOL
    assert np.abs(got.y_values - want.y_values).max() <= TOL
    assert np.abs(got.y_dims - want.y_dims).max() <= TOL
    assert np.abs(got.energies - want.energies).max() <= TOL
    assert got.beta == want.beta


@pytest.mark.parametrize("name,m", COMMUTING, ids=_ids(COMMUTING))
def test_deformed_maps_match_oracle(name, m):
    """Both oracles need Y to commute with the probe state.

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
