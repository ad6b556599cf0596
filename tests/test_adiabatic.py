from dataclasses import replace

import numpy as np
import pytest

from rislab import adiabatic as ad
from rislab import model as mod
from rislab.fullstats import evolved_state
from rislab.linalg import trace_norm, unvec, vec
from rislab.mgfldp import stationary_log_mgf_theta

import oracles
from conftest import random_faithful_state
from test_stacked_decomposition import _flip_map

PRESETS = {"fd": mod.fd_model, "rwa": mod.rwa_model, "flip": mod.fd_model}


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
    P0 = fd_family.decomposition(0.0).peripheral_projector
    for idx in (25, 50, 100):
        s = nodes[idx]
        W = Ws[idx]
        Ps = fd_family.decomposition(s).peripheral_projector
        assert np.abs((np.eye(d2) - Ps) @ W @ P0).max() < 1e-8


def test_intertwiner_evaluates_each_generator_node_once(monkeypatch, fd_family):
    """RK4 over T steps reads one generator stack of 2T + 1 distinct nodes:
    each step's end node is the next step's start. The stacks read are the
    nodes and their two centred-difference neighbours."""
    stacks = []
    original = ad.AdiabaticFamily.stack

    def recorded(family, s_values):
        stacks.append(np.asarray(s_values))
        return original(family, s_values)

    monkeypatch.setattr(ad.AdiabaticFamily, "stack", recorded)
    nodes = np.linspace(0.0, 1.0, 101)
    ad.intertwiner(fd_family, nodes)
    assert [s.size for s in stacks] == [201] * 3
    centres = stacks[-1]
    assert np.unique(centres).size == 201
    assert np.array_equal(centres[0::2], nodes)


def _use_flip_kernels(monkeypatch):
    """Make every family period 2: the fd kernel with a flip map as its only
    term, whose weights vary in s so that the spectral projectors do."""
    original = ad.kraus_families

    def flips(model, s_values):
        fams = original(model, s_values)
        kron = np.zeros_like(fams.kron)
        kron[:, 0] = [_flip_map(1.0 + 0.5 * s, 1.5 - s * s) for s in s_values]
        return replace(fams, kron=kron)

    monkeypatch.setattr(ad, "kraus_families", flips)


@pytest.mark.parametrize(
    "preset,alpha", [("fd", 0.5), ("fd", 0.0), ("rwa", 0.5), ("flip", 0.5)]
)
def test_stacked_route_matches_per_node_oracle(monkeypatch, preset, alpha):
    """The node stacks give bitwise what per-node generators, projector
    differences and chain walks give; each route runs on a fresh family."""
    if preset == "flip":
        _use_flip_kernels(monkeypatch)
    model = PRESETS[preset]()

    def family():
        return ad.AdiabaticFamily(model, alpha)

    if preset == "flip":
        assert family().decomposition(0.5).period == 2
    nodes = np.linspace(0.0, 1.0, 41)
    Ws = ad.intertwiner(family(), nodes)
    assert np.array_equal(Ws, oracles.intertwiner(family(), nodes))
    if preset == "flip":
        assert np.abs(Ws[-1] - np.eye(4)).max() > 1e-3  # dP != 0
    for n in (51, 80):
        assert ad.theta_integral(family(), n_nodes=n) == oracles.theta_integral(
            family(), n_nodes=n
        )
    for T in (10, 40):
        assert ad.product_decomposition_residual(
            family(), T
        ) == oracles.product_decomposition_residual(family(), T)
    grid = np.linspace(0.0, 1.0, 11)
    assert family().gap_bound(grid) == oracles.gap_bound(family(), grid)
    fam, rho_i = family(), np.diag([0.3, 0.7]).astype(complex)
    x = vec(rho_i)
    for j in range(1, 21):
        dec = fam.decomposition(j / 20)
        x = (fam._matrices[j / 20] / dec.spectral_radius) @ x
    assert np.array_equal(ad.exact_deformed_chain(family(), rho_i, 20), unvec(x, 2))


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
