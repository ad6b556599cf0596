import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from rislab import fullstats as fs
from rislab import model as mod
from rislab.linalg import tensor_product

import oracles
from conftest import close, random_faithful_state, random_hermitian, random_small_model
from test_kernel import CASES as KERNEL_CASES

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


@pytest.mark.parametrize("name", ["fd", "rwa", "degenerate-env3"])
def test_entropic_balance_is_minus_delta_a_plus_delta_y(rng, name):
    """For A_i = -log rho_i and A_f = -log rho_f the right-hand side is
    -Delta_a + Delta_y, record by record."""
    m = dict(KERNEL_CASES)[name]
    setup = fs.entropic_setup(random_faithful_state(rng, m.dim_sys))
    for T in (1, 2, 3, 4):
        meas = fs.enumerate_measure(m, setup, T)
        rhs = fs.balance_rhs(m, setup, meas, T)
        assert close(rhs, -meas.delta_a + meas.delta_y), T


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
    bal = oracles.step_balance(m, rho, 0.5)
    assert bal["sigma"] >= -1e-12
    assert abs(bal["defect"]) < 1e-12


def test_entropies():
    rho = np.diag([0.75, 0.25]).astype(complex)
    sig = np.diag([0.5, 0.5]).astype(complex)
    assert abs(
        fs.von_neumann_entropy(rho) - (-(0.75 * np.log(0.75) + 0.25 * np.log(0.25)))
    ) < 1e-12
    kl = oracles.relative_entropy(rho, sig)
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


def test_enumeration_guard_is_a_byte_budget_checked_before_allocating():
    """fd has 2 x 2 outcomes of A_i, A_f and 4 probe pairs per step: T = 10
    (4 194 304 records at 114 bytes) fits the budget, T = 11 (at 115) is
    refused, naming the estimate and the budget, before any record array
    exists."""
    estimate = {T: 2 * 2 * 4**T * (fs.ENUMERATION_BASE_BYTES + T) for T in (10, 11)}
    assert estimate[10] <= fs.ENUMERATION_BUDGET
    assert estimate[11] > fs.ENUMERATION_BUDGET
    m = mod.fd_model()
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
    tracemalloc.start()
    try:
        with pytest.raises(fs.FullStatsError) as err:
            fs.enumerate_measure(m, setup, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert f"{estimate[11]} bytes ({fs.ENUMERATION_BASE_BYTES + 11} per record)" in str(err.value)
    assert f"budget of {fs.ENUMERATION_BUDGET} bytes" in str(err.value)


def _enumeration_cases():
    fd, rwa = mod.fd_model(), mod.rwa_model()
    # one initial outcome and three final ones, on a model with a degenerate Y
    degenerate = dict(KERNEL_CASES)["degenerate-env3"]
    uneven = fs.MeasurementSetup(
        rho_i=np.diag([0.3, 0.7]).astype(complex),
        obs_i=fs.SpectralObservable.from_matrix(np.eye(2)),
        obs_f=fs.SpectralObservable.from_matrix(np.diag([0.0, 1.0])),
    )
    return [
        ("fd", fd, fs.entropic_setup(mod.gibbs_state(fd.h_sys, fd.beta(0.0)))),
        ("rwa", rwa, fs.entropic_setup(mod.gibbs_state(rwa.h_sys, rwa.beta(0.0)))),
        ("degenerate-uneven", degenerate, uneven),
    ]


ENUMERATION_CASES = _enumeration_cases()


@pytest.mark.parametrize("name,m,setup", ENUMERATION_CASES, ids=[c[0] for c in ENUMERATION_CASES])
def test_enumeration_equals_the_index_table_route(name, m, setup):
    """Broadcasting each step along its axis of the record grid gives the
    records of one np.indices table bit for bit at T <= 6, dtypes apart:
    i_index and f_index are stored in the narrowest unsigned dtype."""
    for T in range(1, 7):
        got = fs.enumerate_measure(m, setup, T)
        want = oracles.enumerate_measure_by_index_table(m, setup, T)
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.shape == b.shape, (T, f.name)
            if b.dtype.kind == "f":
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), (T, f.name)
            else:
                assert np.array_equal(a, b), (T, f.name)
        assert got.i_index.dtype == got.f_index.dtype == got.probe_records.dtype == np.uint8
        assert got.probe_records.flags.c_contiguous


def test_balance_files_are_those_of_the_index_table_route(tmp_path, fd3):
    """measure.csv and the balance right-hand side do not see the change of
    route: byte-identical files and bit-equal values."""
    m, setup, meas = fd3
    want = oracles.enumerate_measure_by_index_table(m, setup, 3)
    fs.write_measure_csv(tmp_path / "got.csv", meas)
    fs.write_measure_csv(tmp_path / "want.csv", want)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    got_rhs, want_rhs = fs.balance_rhs(m, setup, meas, 3), fs.balance_rhs(m, setup, want, 3)
    assert np.array_equal(got_rhs.view(np.int64), want_rhs.view(np.int64))


ENUMERATION_PEAK = """
import resource, sys
from rislab import fullstats as fs, model as mod
m = mod.fd_model()
setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))
nodes = fs.ProtocolNodes(m, [8])
fs.enumerate_measure(m, setup, 2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
meas = fs.enumerate_measure(m, setup, 8, nodes=nodes)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024 / meas.delta_y.size)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_enumeration_peak_bytes_per_record():
    """At fd T = 8 (262 144 records) the enumeration's peak, read by
    ru_maxrss in a fresh interpreter, stays at or under 115 bytes per record
    (274 while both state stacks and an int64 index table were alive, 131
    while each trace formed P @ X per pair), and the estimate
    ENUMERATION_BASE_BYTES + T is not below it."""
    out = subprocess.run(
        [sys.executable, "-c", ENUMERATION_PEAK],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    peak = float(out.stdout)
    assert peak <= 115, peak
    assert peak <= fs.ENUMERATION_BASE_BYTES + 8, peak


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


def test_csv_files_match_the_row_writer(tmp_path, fd3):
    """One joined write gives the csv.writer route's bytes, NaN varsigma included."""
    m, setup, meas = fd3
    obs = fs.SpectralObservable.from_matrix(m.h_sys)
    plain = fs.MeasurementSetup(rho_i=setup.rho_i, obs_i=obs, obs_f=obs)
    cases = [
        (fs.write_measure_csv, meas, fs._TRAJECTORY_FIELDS + ("p_forward", "p_backward")),
        (fs.write_trajectories_csv, fs.sample_trajectories(m, setup, 3, 40, seed=2),
         fs._TRAJECTORY_FIELDS),
        (fs.write_trajectories_csv, fs.sample_trajectories(m, plain, 3, 40, seed=2),
         fs._TRAJECTORY_FIELDS),
    ]
    for write, data, fields in cases:
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write(got, data)
        oracles.write_rows_reference(want, data, fields)
        assert got.read_bytes() == want.read_bytes()


def test_row_writer_formats_each_bit_pattern_once(tmp_path, rng):
    """Grouped formatting equals the per-value route on signed zeros, NaN
    payloads, infinities and repeated values."""
    payload_nan = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
    special = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 0.1 + 0.2, 5e-324], payload_nan])
    data = SimpleNamespace(
        x=rng.choice(special, 300),
        y=np.round(rng.standard_normal(300), 2),
        z=rng.standard_normal(300),
    )
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    fs._write_rows(got, data, ("x", "y", "z"))
    oracles.write_rows_reference(want, data, ("x", "y", "z"))
    assert got.read_bytes() == want.read_bytes()
    assert {"-0.0", "0.0", "nan", "inf", "-inf"} <= set(got.read_text().replace("\n", ",").split(","))


def test_evolved_state_matches_unitary_route(rng):
    m = random_small_model(rng)
    rho = random_faithful_state(rng)
    out = fs.evolved_state(m, rho, 2)
    cur = rho
    for k in (1, 2):
        U = mod.joint_unitary(m, k / 2)
        xi = oracles.probe_state(m, k / 2)
        joint = U @ tensor_product(cur, xi) @ U.conj().T
        cur = joint.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    assert np.abs(out - cur).max() < 1e-12
