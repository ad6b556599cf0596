"""End-to-end acceptance checks at their stated tolerances.

Each test pins one externally meaningful guarantee of the package:
published figure values, exact dual-route identities, convergence rates,
fluctuation symmetries, sampler fidelity, and structural invariants over
randomized models.
"""

import numpy as np
import pytest

from rislab import adiabatic as ad
from rislab import fullstats as fs
from rislab import mgfldp as mg
from rislab import model as mod
from rislab import spectral as sp
from rislab.linalg import SuperOperator

import oracles
from conftest import random_faithful_state, random_small_model

FIG_TOL = 5e-3


# -- 1: published derivative values for the full-dipole preset --------------


def test_figure_values_schedule_1():
    d1, d2 = mg.lambda_derivatives_at_zero(mod.fd_model(mod.beta_schedule_1()), 201)
    assert abs(d1 - 0.240) < FIG_TOL
    assert abs(d2 - 0.530) < FIG_TOL


def test_figure_values_schedule_2():
    d1, d2 = mg.lambda_derivatives_at_zero(mod.fd_model(mod.beta_schedule_2()), 201)
    assert abs(d1 - 0.275) < FIG_TOL
    # second derivative: both independent routes (perturbative closed form
    # and central differences of Lambda) agree, but disagree with the
    # printed 0.716; report both and flag rather than force agreement.
    ev = mg.LambdaEvaluator(mod.fd_model(mod.beta_schedule_2()), 201)
    h = 1e-4
    fd2 = (ev(h) - 2 * ev(0.0) + ev(-h)) / h**2
    assert abs(d2 - fd2) < 1e-5  # dual-route consistency
    if abs(d2 - 0.716) > FIG_TOL:
        pytest.xfail(
            f"second-derivative value flagged for investigation: computed "
            f"{d2:.6f} by two independent routes (difference {abs(d2 - fd2):.2e}) "
            f"versus printed 0.716"
        )


def _schedule_2_moved(term: int, delta: float) -> mod.TanhPolySchedule:
    """Schedule 2 with amplitude ``term`` moved by delta: terms 0-1 are the
    tanh amplitudes 35.483 and -141.929, terms 2-5 the polynomial
    coefficients 1.061, -17.808, 93.5 and -42.945."""
    sched = mod.beta_schedule_2()
    amps = [c for c, _ in sched.tanh_terms] + list(sched.poly)
    amps[term] += delta
    rates = [r for _, r in sched.tanh_terms]
    return mod.TanhPolySchedule(tanh_terms=tuple(zip(amps[:2], rates)), poly=tuple(amps[2:]))


def test_schedule_2_rounding_cannot_explain_the_printed_second_derivative():
    """Evidence for the xfail above. Moving each printed amplitude of
    schedule 2 by half its last printed digit moves Lambda''(0) by at most
    2.3e-4 (0.011 for 93.5), short of the 0.045 between the computed 0.6712
    and the printed 0.716; the rates 2 and 1/2 are taken as exact. Reaching
    0.716 through 93.5 alone takes more than +0.2, and at +0.2 Lambda'(0)
    has already left the printed 0.275 +- FIG_TOL."""
    def derivatives(term, delta):
        return mg.lambda_derivatives_at_zero(mod.fd_model(_schedule_2_moved(term, delta)), 201)

    d1, d2 = derivatives(0, 0.0)
    half_digits = [5e-4, 5e-4, 5e-4, 5e-4, 0.05, 5e-4]
    moved = [
        max(abs(derivatives(term, sign * h)[1] - d2) for sign in (1, -1))
        for term, h in enumerate(half_digits)
    ]
    assert max(moved[:4] + moved[5:]) < 2.3e-4
    assert moved[4] < 0.012
    assert sum(moved) < abs(0.716 - d2)
    # 93.5 alone: Lambda' and Lambda'' both rise with it, and +0.2 is not enough
    path = [derivatives(4, delta) for delta in (0.0, 0.1, 0.2)]
    assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(path, path[1:]))
    assert path[-1][1] < 0.716
    assert abs(path[-1][0] - 0.275) > FIG_TOL


# -- 2: product formula equals exact enumeration -----------------------------


def test_mgf_product_vs_enumeration():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    meas = fs.enumerate_measure(m, setup, 3)
    for alpha in (-1.0, -0.5, 0.3, 1.0):
        assert abs(mg.mgf_pair(m, setup, 3, alpha, 0.0) - meas.mgf(alpha)) < 1e-9


# -- 3: trajectory-level balance identity ------------------------------------


def test_balance_identity_and_mean():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    T = 3
    meas = fs.enumerate_measure(m, setup, T)
    assert fs.balance_applicable(m, setup, T)
    rhs = fs.balance_rhs(m, setup, meas, T)
    seen = meas.p_forward > 1e-14
    assert np.all(
        np.abs(np.log(meas.p_forward[seen] / meas.p_backward[seen]) - rhs[seen]) < 1e-10
    )
    assert abs(meas.entropy_production() - fs.total_entropy_production(m, setup.rho_i, T)) < 1e-8


# -- 4: finite-T limits for the exactly stationary preset --------------------


def test_stationary_limits_converge():
    m = mod.rwa_model()
    rng = np.random.default_rng(11)
    rho_i = random_faithful_state(rng)
    setup = fs.entropic_setup(rho_i)
    rho0 = sp.invariant_state(mod.reduced_map(m, 0.0))
    rho1 = sp.invariant_state(mod.reduced_map(m, 1.0))
    grid = [(-0.5, -0.5), (-0.5, 0.5), (0.0, 0.3), (0.5, -0.5), (0.5, 0.5)]
    Ts = (100, 200, 400)
    nodes = fs.ProtocolNodes(m, Ts)
    prev = None
    for T in Ts:
        worst = 0.0
        for a1, a2 in grid:
            fin = mg.mgf_pair(m, setup, T, a1, a2, nodes=nodes).real
            lim = mg.stationary_pair_mgf_limit(rho0, rho1, rho_i, a1, a2).real
            worst = max(worst, abs(fin - lim))
        assert worst <= 5.0 / T
        if prev is not None:
            assert worst < prev
        prev = worst
    # total entropy production converges to the relative entropy
    target = oracles.relative_entropy(rho_i, rho0)
    prev = None
    for T in Ts:
        err = abs(fs.total_entropy_production(m, rho_i, T, nodes=nodes) - target)
        assert err <= 5.0 / T
        if prev is not None:
            assert err < prev
        prev = err


# -- 5: fluctuation symmetries ------------------------------------------------


def test_fluctuation_symmetries():
    ev = mg.LambdaEvaluator(mod.fd_model(), 201)
    assert mg.gc_symmetry_defect(ev) < 1e-6
    assert mg.rate_function_symmetry_defect(ev, n_points=11) < 1e-5


# -- 6: adiabatic product residual decays like 1/T ---------------------------


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_adiabatic_residual_rate(alpha):
    fam = ad.AdiabaticFamily(mod.fd_model(), alpha)
    Ts = np.array([100, 200, 400, 800])
    res = np.array([ad.product_decomposition_residual(fam, int(T)) for T in Ts])
    assert np.all(np.diff(res) < 0)
    slope = np.polyfit(np.log(Ts), np.log(res), 1)[0]
    assert abs(slope + 1.0) < 0.3


# -- 7: central limit theorem for the counted increment ----------------------


def test_clt():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    samp = fs.sample_trajectories(m, setup, 400, 2000, seed=0)
    d1, d2 = mg.lambda_derivatives_at_zero(m, 201)
    out = mg.clt_check(samp.delta_y, 400, d1, d2)
    assert out["ks_distance"] <= 0.05
    assert abs(out["mean_rate"] - d1) <= 3 * out["mean_se"]


# -- 8: sampler reproduces the exact record law ------------------------------


def test_sampler_total_variation():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    T, n = 3, 100_000
    meas = fs.enumerate_measure(m, setup, T)
    obs_f, _ = fs.resolve_final_observable(m, setup, T)
    samp = fs.sample_trajectories(m, setup, T, n, seed=5)

    n_out = fs.step_operators(m, 1.0 / T).y_values.size
    ai_idx = np.argmin(
        np.abs(setup.obs_i.values[None, :] - samp.a_i[:, None]), axis=1
    )
    af_idx = np.argmin(np.abs(obs_f.values[None, :] - samp.a_f[:, None]), axis=1)
    counts: dict[tuple, int] = {}
    for t in range(n):
        probes = tuple(
            (int(c) // n_out, int(c) % n_out) for c in samp.probe_records[t]
        )
        key = (int(ai_idx[t]), probes, int(af_idx[t]))
        counts[key] = counts.get(key, 0) + 1
    tv = 0.0
    for rec, p in zip(oracles.records(meas, n_out), meas.p_forward):
        emp = counts.pop(rec, 0) / n
        tv += abs(emp - p)
    assert not counts  # no sampled record outside the exact support
    assert 0.5 * tv <= 0.01


# -- 9: peripheral structure of the presets ----------------------------------


def test_preset_peripheral_structure():
    rng = np.random.default_rng(2)
    for make in (mod.rwa_model, mod.fd_model):
        m = make()
        for s in (0.0, 0.5, 1.0):
            L = mod.reduced_map(m, s)
            dec = sp.peripheral_decomposition(L)
            assert dec.period == 1
            assert abs(dec.spectral_radius - 1.0) < 1e-10
            for lam, P in zip(dec.eigenvalues, dec.spectral_projectors):
                assert np.abs(L.matrix @ P - lam * P).max() <= 1e-8
            for p in dec.cycle_projectors:
                assert abs(np.trace(dec.rho @ p).real - 1.0 / dec.period) <= 1e-9
        # adjoint pairing of the deformed map against its closed form
        for alpha in (0.6, -1.1 + 0.4j):
            L = mod.deformed_map(m, 0.5, alpha)
            Ladj = oracles.deformed_adjoint_map(m, 0.5, alpha)
            for _ in range(3):
                X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                lhs = np.trace(X.conj().T @ L.apply(Z))
                rhs = np.trace(Ladj.apply(X).conj().T @ Z)
                assert abs(lhs - rhs) <= 1e-10


# -- 10: structural invariants over randomized models ------------------------


def test_randomized_invariants():
    rng = np.random.default_rng(99)
    for trial in range(100):
        m = random_small_model(rng)
        fam = mod.kraus_family(m, 0.5)
        L = SuperOperator.from_kraus(fam.kraus, trace_preserving=True)
        assert L.trace_preserving and L.completely_positive
        rho = sp.invariant_state(L)
        assert np.abs(L.apply(rho) - rho).max() < 1e-9

        rho_i = random_faithful_state(rng)
        setup = fs.entropic_setup(rho_i)
        meas = fs.enumerate_measure(m, setup, 2)
        assert abs(meas.p_forward.sum() - 1.0) < 1e-10
        assert abs(meas.p_backward.sum() - 1.0) < 1e-10
        assert np.array_equal(
            meas.p_forward <= 1e-14, meas.p_backward <= 1e-14
        )
        for k in (1, 2):
            assert oracles.step_balance(m, rho_i, k / 2)["sigma"] >= -1e-12

        if trial % 10 == 0:  # the spectral checks on a subsample
            ev = mg.LambdaEvaluator(m, 21)
            grid = np.linspace(-2.0, 1.0, 13)
            vals = np.array([ev(a) for a in grid])
            second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert second.min() > -1e-9  # convexity
            x0 = ev.derivative(0.0)
            assert abs(mg.legendre_transform(ev, x0)) < 1e-7
