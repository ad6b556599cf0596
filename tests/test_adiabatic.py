import numpy as np
import pytest

from rislab import adiabatic as ad
from rislab import model as mod
from rislab.fullstats import evolved_state
from rislab.linalg import trace_norm
from rislab.mgfldp import stationary_log_mgf_theta

from conftest import random_faithful_state


@pytest.fixture(scope="module")
def fd_family():
    return ad.AdiabaticFamily(mod.fd_model(), 0.5)


def test_intertwiner_transports_ranges(fd_family):
    """W(s) maps the range of P(0) into the range of P(s).

    With the generator sum_m dP_m/ds P_m the intertwining holds on the
    peripheral range (which is what the product decomposition uses), not
    as a full similarity, since the peripheral projectors do not resolve
    the identity.
    """
    nodes = np.linspace(0.0, 1.0, 101)
    Ws = ad.intertwiner(fd_family, nodes)
    d2 = fd_family.dim**2
    P0 = fd_family.peripheral_projector(0.0)
    for idx in (25, 50, 100):
        s = nodes[idx]
        W = Ws[idx]
        Ps = fd_family.peripheral_projector(float(s))
        assert np.abs((np.eye(d2) - Ps) @ W @ P0).max() < 1e-8


def test_gap_bound_below_one(fd_family):
    ell = fd_family.gap_bound(np.linspace(0.0, 1.0, 11))
    assert 0.0 < ell < 1.0


def test_product_residual_decays(fd_family):
    r = [ad.product_decomposition_residual(fd_family, T) for T in (25, 50, 100)]
    assert r[0] > r[1] > r[2]
    # O(1/T): halving T should roughly double the residual
    assert r[0] / r[2] > 2.0


def test_deformed_state_residual_decays(fd_family, rng):
    rho_i = random_faithful_state(rng)
    errs = []
    for T in (50, 100, 200):
        exact = ad.exact_deformed_chain(fd_family, rho_i, T)
        approx = ad.deformed_adiabatic_state(fd_family, rho_i, T)
        errs.append(trace_norm(exact - approx))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.05


def test_theta_vanishes_for_alpha_zero():
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.0)
    # at alpha = 0 the left eigenvector is the identity, so
    # Tr(iota drho/ds) = d Tr(rho)/ds = 0
    assert abs(ad.theta_integral(fam, n_nodes=51)) < 1e-10


def test_theta_matches_stationary_closed_form():
    """For the exchange preset, -theta has a closed form in the partition sums."""
    m = mod.rwa_model()
    k = mod.rwa_k_sys(m)
    b0, b1 = float(m.beta(0.0)), float(m.beta(1.0))
    for alpha in (0.4, -0.7):
        fam = ad.AdiabaticFamily(m, alpha)
        theta = ad.theta_integral(fam, n_nodes=401)
        assert abs(theta.imag) < 1e-9
        closed = stationary_log_mgf_theta(k, b0, b1, alpha)
        assert abs(-theta.real - closed) < 1e-7


def test_adiabatic_state_tracks_exact_chain(rng):
    m = mod.fd_model()
    rho_i = random_faithful_state(rng)
    errs = []
    for T in (50, 100, 200):
        exact = evolved_state(m, rho_i, T)
        approx = ad.adiabatic_state(m, rho_i, T)
        assert np.isclose(np.trace(approx).real, 1.0, atol=1e-10)
        errs.append(trace_norm(exact - approx))
    assert errs[0] > errs[1] > errs[2]


def test_adiabatic_state_midpoint(rng):
    m = mod.fd_model()
    rho_i = random_faithful_state(rng)
    T = 200
    k = 100
    rho = np.asarray(rho_i, dtype=complex)
    for j in range(1, k + 1):
        rho = mod.reduced_map(m, j / T).apply(rho)
    approx = ad.adiabatic_state(m, rho_i, T, k)
    assert trace_norm(rho - approx) < 0.05
