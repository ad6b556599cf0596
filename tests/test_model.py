import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from rislab import model as mod
from rislab.linalg import SuperOperator, tensor_product
from rislab.spectral import invariant_state

import oracles
from conftest import random_small_model

# frozen endpoint / mean oracles for the two inverse-temperature schedules
BETA1_AT_0 = 1.0619458698954558
BETA1_AT_1 = 2.426939346064555
BETA2_AT_1 = 2.426764611074283
BETA2_MEAN = 1.9994891927534761


def test_beta_schedule_1_oracles():
    b1 = mod.beta_schedule_1()
    assert abs(b1(0.0) - BETA1_AT_0) < 1e-14
    assert abs(b1(1.0) - BETA1_AT_1) < 1e-14
    mean, _ = quad(b1, 0.0, 1.0)
    assert abs(mean - 2.0) < 1e-10


def test_beta_schedule_2_oracles():
    b2 = mod.beta_schedule_2()
    assert abs(b2(0.0) - 1.061) < 1e-12  # constant term of the polynomial
    assert abs(b2(1.0) - BETA2_AT_1) < 1e-12
    mean, _ = quad(b2, 0.0, 1.0)
    assert abs(mean - BETA2_MEAN) < 1e-10
    # same endpoints as schedule 1 at the printed precision
    assert abs(b2(1.0) - mod.beta_schedule_1()(1.0)) < 2e-4


def test_schedules_vectorize():
    b = mod.beta_schedule_1()
    s = np.linspace(0, 1, 7)
    assert b(s).shape == (7,)
    assert mod.ConstantSchedule(1.5)(s).shape == (7,)
    tab = mod.TabulatedSchedule(nodes=(0.0, 0.5, 1.0), values=(1.0, 2.0, 1.0))
    assert abs(tab(0.5) - 2.0) < 1e-12


def test_gibbs_state():
    h = np.diag([0.0, 0.8])
    g = mod.gibbs_state(h, 2.0)
    z = 1.0 + np.exp(-1.6)
    assert np.allclose(np.diag(g).real, [1.0 / z, np.exp(-1.6) / z])
    assert np.isclose(np.trace(g), 1.0)


def test_joint_unitary_matches_expm(rng):
    m = random_small_model(rng)
    U = mod.joint_unitary(m, 0.3)
    H = mod.total_hamiltonian(m, 0.3)
    assert np.abs(U - expm(-1j * m.tau * H)).max() < 1e-12
    assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-12


def test_kraus_family_completeness(rng):
    m = random_small_model(rng)
    fam = mod.kraus_family(m, 0.7)
    total = sum(K.conj().T @ K for K in fam.kraus)
    assert np.abs(total - np.eye(2)).max() < 1e-12
    assert np.isclose(np.trace(fam.xi_y), 1.0)


def test_reduced_map_is_tp_cp(rng):
    m = random_small_model(rng)
    L = mod.reduced_map(m, 0.5)
    assert L.trace_preserving and L.completely_positive
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    out = L.apply(rho)
    assert np.isclose(np.trace(out), 1.0)
    assert np.linalg.eigvalsh(out).min() > -1e-12


def test_deformed_map_alpha_zero_is_reduced(rng):
    m = random_small_model(rng)
    L0 = mod.deformed_map(m, 0.4, 0.0)
    L = mod.reduced_map(m, 0.4)
    assert np.abs(L0.matrix - L.matrix).max() < 1e-12


@pytest.mark.parametrize("alpha", [0.7, -1.3, 0.2 + 0.5j])
def test_deformed_map_two_routes_agree(rng, alpha):
    """Weighted-Kraus route versus the defining partial-trace expression."""
    m = random_small_model(rng)
    A = mod.deformed_map(m, 0.6, alpha)
    B = oracles.deformed_map_bare(m, 0.6, alpha)
    assert np.abs(A.matrix - B.matrix).max() < 1e-12


def test_deformed_adjoint_closed_form(rng):
    m = random_small_model(rng)
    for alpha in (0.5, -0.8 + 0.3j):
        L = mod.deformed_map(m, 0.25, alpha)
        Ladj = oracles.deformed_adjoint_map(m, 0.25, alpha)
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.trace(X.conj().T @ L.apply(Z))
        rhs = np.trace(Ladj.apply(X).conj().T @ Z)
        assert abs(lhs - rhs) < 1e-12


def test_rwa_obstruction_vanishes():
    m = mod.rwa_model()
    assert mod.obstruction_norm(m, [0.0, 0.3, 0.8, 1.0]).max() < 1e-12
    k = mod.rwa_k_sys(m)
    assert np.abs(k - (0.8 / 0.9) * m.h_sys).max() < 1e-12
    for s in (0.0, 0.5, 1.0):
        assert mod.commuting_effective_hamiltonian(m, s, k) < 1e-12


def test_fd_obstruction_does_not_vanish():
    m = mod.fd_model()
    assert mod.obstruction_norm(m, [0.5]).max() > 0.05


def test_rwa_invariant_state_is_rescaled_gibbs():
    m = mod.rwa_model()
    for s in (0.0, 0.6, 1.0):
        rho = invariant_state(mod.reduced_map(m, s))
        target = mod.gibbs_state(m.h_sys, (0.8 / 0.9) * m.beta(s))
        assert np.abs(rho - target).max() < 1e-10


def test_tri_symmetry_defect_presets():
    for m in (mod.rwa_model(), mod.fd_model()):
        assert mod.tri_symmetry_defect(m, 0.5, [-1.5, -0.3, 0.4, 1.0]) < 1e-10


def test_fd_deformed_map_closed_form():
    """Transcribed closed-form 4x4 matrix of the deformed map (full dipole)."""
    E0, E, lam, tau = 0.8, 0.9, 2.0, 0.5
    m = mod.fd_model()
    s, alpha = 0.37, 0.65
    B = float(m.beta(s))
    eta = np.sqrt((E0 + E) ** 2 + lam**2)
    nu = np.sqrt((E - E0) ** 2 + lam**2)
    root = eta * nu

    a = (2 * (E0 + E) ** 2 + lam**2 + lam**2 * np.cos(eta * tau)) / (
        2 * (1 + np.exp(E0 * B)) * eta**2 * np.exp(-E0 * B)
    ) + (2 * (E0 - E) ** 2 + lam**2 + lam**2 * np.cos(nu * tau)) / (
        2 * (1 + np.exp(E0 * B)) * nu**2
    )
    d = lam**2 * (
        -2 * np.exp(-E0 * alpha * B) * (np.cos(eta * tau) - 1)
        / (4 * (1 + np.exp(E0 * B)) * eta**2)
        - 2 * np.exp(E0 * (alpha + 1) * B) * (np.cos(nu * tau) - 1)
        / (4 * (1 + np.exp(E0 * B)) * nu**2)
    )
    c = (
        lam**2
        * np.cosh(E0 * B * (0.5 + alpha))
        / np.cosh(E0 * B / 2)
        * np.sin(eta * tau / 2)
        * np.sin(nu * tau / 2)
        / root
    )
    b = (
        (1j * eta * np.cos(eta * tau / 2) + (E0 + E) * np.sin(eta * tau / 2))
        * ((E0 - E) * np.sin(nu * tau / 2) - 1j * nu * np.cos(nu * tau / 2))
        / root
    )
    e = (
        (
            -np.exp(1j * nu * tau) * E0
            + E0
            - E
            + nu
            + np.exp(1j * nu * tau) * (E + nu)
        )
        * (eta * np.cos(eta * tau / 2) + 1j * (E0 + E) * np.sin(eta * tau / 2))
        / (2 * eta * nu * np.exp(0.5j * nu * tau))
    )
    f = (
        np.exp(-E0 * alpha * B)
        * lam**2
        / (4 * (1 + np.exp(E0 * B)))
        * (
            (2 - 2 * np.cos(nu * tau)) / nu**2
            - 2 * np.exp(E0 * (2 * alpha + 1) * B) * (np.cos(eta * tau) - 1) / eta**2
        )
    )
    g = (2 * (E0 + E) ** 2 + lam**2 + lam**2 * np.cos(eta * tau)) / (
        2 * (1 + np.exp(-E0 * B)) * eta**2 * np.exp(E0 * B)
    ) + (2 * (E0 - E) ** 2 + lam**2 + lam**2 * np.cos(nu * tau)) / (
        2 * (1 + np.exp(-E0 * B)) * nu**2
    )
    expected = np.array(
        [
            [a, 0, 0, d],
            [0, b, c, 0],
            [0, c, e, 0],
            [f, 0, 0, g],
        ],
        dtype=complex,
    )
    got = mod.deformed_map(m, s, alpha).matrix
    assert np.abs(got - expected).max() < 1e-12


def test_default_counting_observable_commutes_with_probe(rng):
    m = random_small_model(rng)
    Y = mod.counting_observable(m, 0.5, m.beta(0.5), m.h_env(0.5))
    xi = mod.probe_state(m, 0.5)
    assert np.abs(Y @ xi - xi @ Y).max() < 1e-12


def test_preset_shapes():
    for m in (mod.rwa_model(), mod.fd_model()):
        assert m.dim_sys == m.dim_env == 2
        assert np.allclose(m.h_sys, np.diag([0.0, 0.9]))
        assert np.allclose(m.h_env(0.3), np.diag([0.0, 0.8]))
        assert m.tau == 0.5
        V = m.coupling(0.0)
        assert np.abs(V - V.conj().T).max() < 1e-14
        assert tensor_product(np.eye(2), np.eye(2)).shape == V.shape


def test_superoperator_roundtrip_via_kraus(rng):
    m = random_small_model(rng)
    fam = mod.kraus_family(m, 0.9)
    L = SuperOperator.from_kraus(fam.kraus, trace_preserving=True)
    assert np.abs(L.matrix - mod.reduced_map(m, 0.9).matrix).max() < 1e-13
