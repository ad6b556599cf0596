import numpy as np
import pytest

from rislab import fullstats as fs
from rislab import model as mod
from rislab.linalg import tensor_product

import oracles
from conftest import random_faithful_state, random_hermitian, random_small_model

FD_OUTCOMES = 2  # distinct outcomes of Y = beta * h_env on the preset probes


@pytest.fixture(scope="module")
def fd3():
    m = mod.fd_model()
    rho_i = mod.gibbs_state(m.h_sys, m.beta(0.0))
    setup = fs.entropic_setup(rho_i)
    return m, setup, fs.enumerate_measure(m, setup, 3)


def test_spectral_observable_grouping():
    A = np.diag([1.0, 1.0 + 1e-12, 3.0])
    obs = fs.SpectralObservable.from_matrix(A)
    assert obs.n_outcomes == 2
    assert np.allclose(obs.dims(), [2.0, 1.0])
    assert np.abs(sum(obs.projectors) - np.eye(3)).max() < 1e-12
    assert np.abs(
        sum(v * P for v, P in zip(obs.values, obs.projectors)) - A
    ).max() < 1e-11


def test_measure_normalization(fd3):
    _, _, meas = fd3
    assert abs(meas.p_forward.sum() - 1.0) < 1e-12
    assert abs(meas.p_backward.sum() - 1.0) < 1e-12
    assert np.all(meas.p_forward >= 0)


def test_forward_backward_support(fd3):
    _, _, meas = fd3
    zf = meas.p_forward <= 1e-14
    zb = meas.p_backward <= 1e-14
    assert np.array_equal(zf, zb)


def test_varsigma_identity(fd3):
    """For the entropic setup, log(pF/pB) = -delta_a + delta_y termwise."""
    _, _, meas = fd3
    mask = meas.p_forward > 1e-12
    closed = -meas.delta_a[mask] + meas.delta_y[mask]
    assert np.abs(meas.varsigma[mask] - closed).max() < 1e-10


def test_balance_identity(fd3):
    m, setup, meas = fd3
    assert fs.balance_applicable(m, setup, 3)
    rhs = fs.balance_rhs(m, setup, meas, 3)
    seen = meas.p_forward > 1e-12
    worst = np.abs(np.log(meas.p_forward[seen] / meas.p_backward[seen]) - rhs[seen]).max()
    assert worst < 1e-10


def test_balance_rhs_matches_per_record_oracle(fd3):
    m, setup, meas = fd3
    rhs = fs.balance_rhs(m, setup, meas, 3)
    records = oracles.records(meas, FD_OUTCOMES)
    want = np.array([oracles.balance_rhs(m, setup, rec, 3) for rec in records])
    assert rhs.shape == want.shape
    assert np.abs(rhs - want).max() < 1e-12


def test_balance_not_applicable(rng):
    m = mod.fd_model()
    rho_i = random_faithful_state(rng)
    # measure an observable that does not commute with rho_i
    obs = fs.SpectralObservable.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    setup = fs.MeasurementSetup(rho_i=rho_i, obs_i=obs, obs_f=obs)
    assert not fs.balance_applicable(m, setup, 2)
    meas = fs.enumerate_measure(m, setup, 2)
    assert fs.balance_rhs(m, setup, meas, 2) is None
    assert oracles.balance_rhs(m, setup, oracles.records(meas, FD_OUTCOMES)[0], 2) is None


def test_forward_prob_matches_enumeration(fd3):
    m, setup, meas = fd3
    records = oracles.records(meas, FD_OUTCOMES)
    for idx in (0, 17, len(records) - 1):
        rec = records[idx]
        assert abs(oracles.forward_prob(m, setup, rec, 3) - meas.p_forward[idx]) < 1e-13
        assert abs(oracles.backward_prob(m, setup, rec, 3) - meas.p_backward[idx]) < 1e-13


def test_enumeration_beyond_two_levels(rng):
    """3-level system and probes, a degenerate Y and unequal outcome counts.

    Y = beta * h_env has 2 outcomes on the 3-level probes, A_i 3 and A_f 2,
    so a swapped index axis of the enumeration shows against the oracles.
    """
    V = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    h_env = V @ np.diag([0.2, 0.2, 1.1]).astype(complex) @ V.conj().T
    v = random_hermitian(rng, 9)
    m = mod.RISModel(
        dim_sys=3,
        dim_env=3,
        h_sys=random_hermitian(rng, 3),
        h_env=lambda s: h_env,
        coupling=lambda s: v,
        beta=lambda s: 0.7 + 0.5 * s,
        tau=0.6,
    )
    W = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    setup = fs.MeasurementSetup(
        rho_i=random_faithful_state(rng, d=3),
        obs_i=fs.SpectralObservable.from_matrix(random_hermitian(rng, 3)),
        obs_f=fs.SpectralObservable.from_matrix(W @ np.diag([0.0, 0.0, 1.0]) @ W.conj().T),
    )
    assert (setup.obs_i.n_outcomes, setup.obs_f.n_outcomes) == (3, 2)
    n_out = fs.step_operators(m, 1.0).y_values.size
    assert n_out == 2
    for T in (1, 2, 3):
        meas = fs.enumerate_measure(m, setup, T)
        assert meas.i_index.size == 3 * 2 * n_out ** (2 * T)
        assert abs(meas.p_forward.sum() - 1.0) < 1e-12
        assert abs(meas.p_backward.sum() - 1.0) < 1e-12
        for idx, rec in enumerate(oracles.records(meas, n_out)):
            assert abs(oracles.forward_prob(m, setup, rec, T) - meas.p_forward[idx]) < 1e-13
            assert abs(oracles.backward_prob(m, setup, rec, T) - meas.p_backward[idx]) < 1e-13


def test_entropy_production_equals_step_sum(fd3):
    m, setup, meas = fd3
    direct = meas.entropy_production()
    chained = fs.total_entropy_production(m, setup.rho_i, 3)
    assert abs(direct - chained) < 1e-8
    assert direct >= 0.0


def test_step_balance_defect(rng):
    m = random_small_model(rng)
    rho = random_faithful_state(rng)
    bal = fs.step_balance(m, rho, 0.5)
    assert bal["sigma"] >= -1e-12
    assert abs(bal["defect"]) < 1e-12


def test_entropies():
    rho = np.diag([0.75, 0.25]).astype(complex)
    sig = np.diag([0.5, 0.5]).astype(complex)
    assert abs(
        fs.von_neumann_entropy(rho) - (-(0.75 * np.log(0.75) + 0.25 * np.log(0.25)))
    ) < 1e-12
    kl = fs.relative_entropy(rho, sig)
    assert abs(kl - (0.75 * np.log(1.5) + 0.25 * np.log(0.5))) < 1e-12
    # Renyi relative entropy tends to -S(rho|sigma) in slope near alpha = 1:
    # S_alpha(rho|sigma) = log Tr rho^a sigma^(1-a) vanishes at a = 1 with
    # derivative S(rho|sigma)
    h = 1e-6
    slope = (
        fs.renyi_relative_entropy(1.0 + h, rho, sig)
        - fs.renyi_relative_entropy(1.0 - h, rho, sig)
    ) / (2 * h)
    assert abs(slope - kl) < 1e-6
    assert abs(fs.renyi_relative_entropy(1.0, rho, sig)) < 1e-12


def test_sampler_reproducible(rng):
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    a = fs.sample_trajectories(m, setup, 4, 64, seed=7)
    b = fs.sample_trajectories(m, setup, 4, 64, seed=7)
    assert np.array_equal(a.probe_records, b.probe_records)
    assert np.array_equal(a.delta_y, b.delta_y)
    c = fs.sample_trajectories(m, setup, 4, 64, seed=8)
    assert not np.array_equal(a.probe_records, c.probe_records)
    # counter-based streams: the first 32 trajectories of a 64 draw match a
    # 32 draw with the same seed
    small = fs.sample_trajectories(m, setup, 4, 32, seed=7)
    assert np.array_equal(a.probe_records[:32], small.probe_records)
    # entropic setup fills varsigma = -delta_a + delta_y
    assert np.abs(a.varsigma - (-a.delta_a + a.delta_y)).max() < 1e-12


def test_sampled_marginals_match_measure(fd3):
    m, setup, meas = fd3
    samp = fs.sample_trajectories(m, setup, 3, 4000, seed=3)
    exact_mean = float(np.sum(meas.p_forward * meas.delta_y))
    se = float(np.sqrt(np.sum(meas.p_forward * meas.delta_y**2)) / np.sqrt(4000))
    assert abs(samp.delta_y.mean() - exact_mean) < 4 * se + 1e-12


def test_enumeration_guard():
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    with pytest.raises(fs.FullStatsError):
        fs.enumerate_measure(m, setup, 12)


def test_csv_roundtrip(tmp_path, fd3):
    m, setup, meas = fd3
    p1 = tmp_path / "measure.csv"
    fs.write_measure_csv(p1, meas)
    rows = p1.read_text().strip().split("\n")
    assert len(rows) == meas.i_index.size + 1
    first = rows[1].split(",")
    assert float(first[6]) == meas.p_forward[0]

    samp = fs.sample_trajectories(m, setup, 3, 16, seed=1)
    p2 = tmp_path / "traj.csv"
    fs.write_trajectories_csv(p2, samp)
    rows = p2.read_text().strip().split("\n")
    assert len(rows) == 17
    assert float(rows[1].split(",")[4]) == samp.delta_y[0]


def test_evolved_state_matches_unitary_route(rng):
    m = random_small_model(rng)
    rho = random_faithful_state(rng)
    out = fs.evolved_state(m, rho, 2)
    cur = rho
    for k in (1, 2):
        U = mod.joint_unitary(m, k / 2)
        xi = mod.probe_state(m, k / 2)
        joint = U @ tensor_product(cur, xi) @ U.conj().T
        cur = joint.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    assert np.abs(out - cur).max() < 1e-12
