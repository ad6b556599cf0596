from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import kstest

from rislab import fullstats as fs
from rislab import mgfldp as mg
from rislab import model as mod
from rislab.linalg import unvec, vec
from rislab.spectral import SpectralError, invariant_state

from conftest import random_faithful_state

# frozen high-precision oracles for the full-dipole preset with schedule 1,
# converged in the quadrature node count (201 through 1601 nodes agree)
FD1_D1 = 0.24016263437603871
FD1_D2 = 0.5297882642092488


@pytest.fixture(scope="module")
def fd_ev():
    return mg.LambdaEvaluator(mod.fd_model(), 201)


def test_lambda_zero(fd_ev):
    assert abs(fd_ev(0.0)) < 1e-12


def test_lambda_derivatives_closed_form():
    d1, d2 = mg.lambda_derivatives_at_zero(mod.fd_model(), 201)
    assert abs(d1 - FD1_D1) < 1e-9
    assert abs(d2 - FD1_D2) < 1e-9
    assert d2 > 0


def test_lambda_derivatives_match_finite_difference(fd_ev):
    """Closed-form perturbative route versus central differences of Lambda."""
    d1, d2 = mg.lambda_derivatives_at_zero(mod.fd_model(), 201)
    h = 1e-4
    fd1 = (fd_ev(h) - fd_ev(-h)) / (2 * h)
    fd2 = (fd_ev(h) - 2 * fd_ev(0.0) + fd_ev(-h)) / h**2
    assert abs(d1 - fd1) < 1e-7
    assert abs(d2 - fd2) < 1e-5


def _per_node_derivatives(m, n_nodes):
    """(Lambda'(0), Lambda''(0)) one node at a time: each node's reduced map
    from deformed_map, its invariant_state and the lstsq solve for eta."""
    s_grid = np.linspace(0.0, 1.0, n_nodes)
    d = m.dim_sys
    diag = slice(None, None, d + 1)
    l1s, l2s = np.empty(n_nodes), np.empty(n_nodes)
    for i, s in enumerate(s_grid):
        fam = mod.kraus_family(m, float(s))
        L = mod.deformed_map(m, float(s), 0.0)
        rho = invariant_state(L)
        jumps = fam.kron @ vec(rho)
        weights = np.real(jumps[:, diag].sum(axis=1))
        l1s[i] = fam.dy @ weights
        A = np.eye(d * d, dtype=complex) - L.matrix
        eta0, *_ = np.linalg.lstsq(A, fam.dy @ jumps - l1s[i] * vec(rho), rcond=None)
        eta = unvec(eta0, d)
        eta = eta - np.trace(eta) * rho
        eta_weights = np.real((fam.kron @ vec(eta))[:, diag].sum(axis=1))
        l2s[i] = fam.dy**2 @ weights + 2 * fam.dy @ eta_weights
    return (
        float(simpson(l1s, x=s_grid)),
        float(simpson(l2s - l1s**2, x=s_grid)),
    )


@pytest.mark.parametrize("make", [mod.fd_model, mod.rwa_model])
def test_derivatives_at_zero_equal_the_per_node_route(make):
    """The stacked solve gives the per-node lstsq route's (Lambda', Lambda'')
    bitwise on fd. On rwa the two routes agree to 1e-15 absolute: there
    Lambda''(0) is 0 and each route returns its own round-off around it."""
    m = make()
    for n_nodes in (21, 201):
        got = mg.LambdaEvaluator(m, n_nodes).derivatives_at_zero()
        want = _per_node_derivatives(m, n_nodes)
        if make is mod.fd_model:
            assert got == want
        else:
            assert np.abs(np.subtract(got, want)).max() <= 1e-15


def test_perturbation_solve_residual_names_its_node(monkeypatch):
    """A solution off (Id - L) eta = rhs by more than 1e-10 is refused at its s."""
    solve = np.linalg.solve

    def off_at_node_4(a, b):
        eta = solve(a, b)
        eta[4] += 1e-6
        return eta

    monkeypatch.setattr(np.linalg, "solve", off_at_node_4)
    with pytest.raises(ValueError, match=r"residual .* at s=0\.4$"):
        mg.LambdaEvaluator(mod.fd_model(), 11).derivatives_at_zero()


def test_reducible_node_is_refused():
    """With no coupling L(s) is a unitary conjugation: not irreducible."""
    m = replace(mod.fd_model(), coupling=lambda s: np.zeros((4, 4)))
    with pytest.raises(SpectralError, match="matrix 0 of the stack"):
        mg.LambdaEvaluator(m, 11).derivatives_at_zero()


def test_lambda_convex(fd_ev):
    grid = np.linspace(-3.0, 2.0, 26)
    vals = np.array([fd_ev(a) for a in grid])
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert second.min() > -1e-10


def test_support_window(fd_ev):
    lo, hi = fd_ev.support_window()
    # extreme counted increments are +/- beta(s) * E0 integrated over s,
    # with E0 = 0.8 and int beta = 2: the window is (-1.6, 1.6)
    assert abs(hi - 1.6) < 1e-9
    assert abs(lo + 1.6) < 1e-9


def test_gc_symmetry(fd_ev):
    assert mg.gc_symmetry_defect(fd_ev) < 1e-12


def test_rate_function_symmetry(fd_ev):
    assert mg.rate_function_symmetry_defect(fd_ev, n_points=9) < 1e-6


def test_legendre_basics(fd_ev):
    window = fd_ev.support_window()
    assert mg.legendre_transform(fd_ev, 5.0, window=window) == np.inf
    assert mg.legendre_transform(fd_ev, -5.0, window=window) == np.inf
    x0 = fd_ev.derivative(0.0)
    assert abs(mg.legendre_transform(fd_ev, x0, window=window)) < 1e-8
    # Lambda* is nonnegative and grows away from the LLN mean
    for a in (-1.0, 0.8):
        x = fd_ev.derivative(a)
        val = mg.legendre_transform(fd_ev, x, window=window)
        assert val >= -1e-10
        assert abs(val - (a * x - fd_ev(a))) < 1e-7


def test_legendre_point_matches_the_search(fd_ev):
    """The parametric form alpha*x - Lambda(alpha) at x = Lambda'(alpha)
    agrees with the transform whose maximiser is searched for."""
    window = fd_ev.support_window()
    for a in (-2.0, -1.3, -0.5, 0.0, 0.4, 1.0):
        x, rate = mg.legendre_point(fd_ev, a)
        assert x == fd_ev.derivative(a)
        assert abs(rate - mg.legendre_transform(fd_ev, x, window=window)) < 1e-12


def test_mgf_product_matches_enumeration():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    meas = fs.enumerate_measure(m, setup, 3)
    for alpha in (-1.0, 0.4, 1.0):
        prod = mg.mgf_pair(m, setup, 3, alpha, 0.0)
        enum = meas.mgf(alpha)
        assert abs(prod - enum) < 1e-12
    for a1, a2 in ((0.5, -0.5), (-0.3, 0.7)):
        assert abs(mg.mgf_pair(m, setup, 3, a1, a2) - meas.pair_mgf(a1, a2)) < 1e-12
        assert abs(
            mg.mgf_pair(m, setup, 3, a1, -a1)
            - meas.pair_mgf(a1, -a1)
        ) < 1e-12


def test_lln_mean(fd_ev):
    assert abs(fd_ev.derivative(0.0) - FD1_D1) < 1e-6


def test_clt_check_on_gaussian_samples(rng):
    d1, d2 = 0.24, 0.53
    T = 400
    samples = T * d1 + np.sqrt(T * d2) * rng.standard_normal(5000)
    out = mg.clt_check(samples, T, d1, d2)
    assert out["ks_distance"] < 0.03
    assert abs(out["mean_rate"] - d1) < 4 * out["mean_se"]


def test_ks_distance_matches_scipy_kstest(rng):
    """The numpy KS distance against scipy's: random sets, ties, d2 != 1, n = 1."""
    cases = [(rng.uniform(0.5, 2.0) * rng.standard_normal(2000), 1, 0.0, rng.uniform(0.2, 3.0))
             for _ in range(20)]
    cases += [
        (np.repeat(rng.standard_normal(40), 25), 1, 0.0, 1.0),
        (np.round(rng.standard_normal(500), 1), 1, 0.0, 0.53),
        (400 * 0.24 + np.sqrt(400 * 0.53) * rng.standard_normal(2000), 400, 0.24, 0.53),
        (np.array([0.3]), 1, 0.0, 1.0),
        (np.array([-1.2]), 1, 0.0, 2.5),
    ]
    for dy, T, d1, d2 in cases:
        got = mg.clt_check(dy, T, d1, d2)["ks_distance"]
        want = kstest((dy - T * d1) / np.sqrt(T), "norm", args=(0.0, np.sqrt(d2))).statistic
        assert abs(got - want) <= 1e-12 * want, (dy.size, d2)
    assert np.isnan(mg.clt_check(np.array([0.3]), 1, 0.0, 1.0)["mean_se"])
    with pytest.raises(ValueError, match="positive"):
        mg.clt_check(np.zeros(5), 1, 0.0, 0.0)


def test_stationary_pair_mgf_limit_explicit(rng):
    """The exchange-preset limit law against the transcribed explicit MGF."""
    m = mod.rwa_model()
    rho_i = random_faithful_state(rng)
    rho0 = invariant_state(mod.reduced_map(m, 0.0))
    b0, E0 = float(m.beta(0.0)), 0.8
    r, V = np.linalg.eigh(rho_i)
    for alpha in (-0.8, 0.3, 1.1):
        explicit = (1 + np.exp(-b0 * E0)) ** alpha * sum(
            r[k] ** (1 + alpha)
            * (abs(V[0, k]) ** 2 + abs(V[1, k]) ** 2 * np.exp(alpha * b0 * E0))
            for k in range(2)
        )
        rho1 = invariant_state(mod.reduced_map(m, 1.0))
        lim = mg.stationary_pair_mgf_limit(rho0, rho1, rho_i, alpha, -alpha)
        assert abs(lim - explicit) < 1e-10


def test_stationary_varsigma_limit_law(rng):
    m = mod.rwa_model()
    rho_i = random_faithful_state(rng)
    rho0 = invariant_state(mod.reduced_map(m, 0.0))
    atoms, weights = mg.stationary_varsigma_limit_law(rho0, rho_i)
    assert abs(weights.sum() - 1.0) < 1e-12
    mean = float(np.sum(weights * atoms))
    assert abs(mean - fs.relative_entropy(rho_i, rho0)) < 1e-12
    # the MGF of the atomic law matches the limit pair MGF
    for alpha in (-0.5, 0.7):
        mgf_atoms = float(np.sum(weights * np.exp(alpha * atoms)))
        rho1 = invariant_state(mod.reduced_map(m, 1.0))
        lim = mg.stationary_pair_mgf_limit(rho0, rho1, rho_i, alpha, -alpha).real
        assert abs(mgf_atoms - lim) < 1e-10


def test_stationary_log_mgf_theta_zero_at_alpha_zero():
    m = mod.rwa_model()
    k = mod.rwa_k_sys(m)
    out = mg.stationary_log_mgf_theta(k, float(m.beta(0.0)), float(m.beta(1.0)), 0.0)
    assert abs(out) < 1e-14


def test_mgf_pair_of_alpha_arrays_is_the_scalar_calls():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    nodes = fs.ProtocolNodes(m, [7])
    alpha1 = [-0.5, -0.5, 0.0, 0.5, 0.3 + 0.2j]
    alpha2 = [-0.5, 0.5, 0.3, -0.5, 0.0]
    got = mg.mgf_pair(m, setup, 7, np.array(alpha1), np.array(alpha2), nodes=nodes)
    want = [mg.mgf_pair(m, setup, 7, a1, a2) for a1, a2 in zip(alpha1, alpha2)]
    assert got.shape == (5,)
    assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        mg.mgf_pair(m, setup, 7, np.array(alpha1), np.array(alpha2[:3]), nodes=nodes)


def test_finite_T_mgf_converges_to_limit(rng):
    m = mod.rwa_model()
    rho_i = random_faithful_state(rng)
    setup = fs.entropic_setup(rho_i)
    rho0 = invariant_state(mod.reduced_map(m, 0.0))
    rho1 = invariant_state(mod.reduced_map(m, 1.0))
    a1, a2 = 0.5, -0.5
    lim = mg.stationary_pair_mgf_limit(rho0, rho1, rho_i, a1, a2).real
    Ts = (50, 100, 200)
    nodes = fs.ProtocolNodes(m, Ts)
    errs = [abs(mg.mgf_pair(m, setup, T, a1, a2, nodes=nodes).real - lim) for T in Ts]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.05
