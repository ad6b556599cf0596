"""The sampler's array passes in real Hermitian coordinates: the complex
all-maps route's records, bit for bit, from one reusable random stream per
call."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislab import fullstats as fs
from rislab import linalg as la
from rislab import model as mod

import oracles
from conftest import hermitian, random_hermitian
from test_stacked_kernel import CASES

RECORD_FIELDS = ("probe_records", "delta_y", "a_i", "a_f")


def _entropic(m):
    return fs.entropic_setup(mod.gibbs_state(m.h_sys, m.beta(0.0)))


def _assert_same_records(m, setup, T, n, seed):
    got = fs.sample_trajectories(m, setup, T, n, seed)
    want = oracles.sample_trajectories_reference(m, setup, T, n, seed)
    for f in RECORD_FIELDS:
        assert np.array_equal(getattr(got, f), getattr(want, f)), f


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_sampler_matches_all_maps_route(name, m):
    _assert_same_records(m, _entropic(m), 6, 300, seed=11)


@pytest.mark.parametrize("make", [mod.fd_model, mod.rwa_model])
def test_sampler_matches_all_maps_route_at_T50(make):
    m = make()
    _assert_same_records(m, _entropic(m), 50, 500, seed=3)


def test_sampler_matches_all_maps_route_non_entropic():
    """Initial and final observables given as matrices; varsigma stays NaN."""
    m = mod.fd_model()
    obs = fs.SpectralObservable.from_matrix(m.h_sys)
    setup = fs.MeasurementSetup(rho_i=_entropic(m).rho_i, obs_i=obs, obs_f=obs)
    _assert_same_records(m, setup, 8, 300, seed=5)
    assert np.isnan(fs.sample_trajectories(m, setup, 8, 10, seed=5).varsigma).all()


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_reset_stream_is_a_fresh_philox(seed):
    """Rows [start, start + length) of a fresh stream, at starts 0, 4, 8 and
    404; lengths 1..9 cross the generator's 4-word buffer."""
    for start in (0, 4, 8, 404):
        for length in range(1, 10):
            u = fs.trajectory_uniforms(seed, 4, length, start)
            assert u.shape == (length, 4)
            for t in range(4):
                fresh = np.random.Generator(np.random.Philox(key=(seed << 64) + t))
                want = fresh.random(start + length)[start:]
                assert np.array_equal(u[:, t], want), (start, length, t)


def test_a_longer_draw_starts_with_a_shorter_one():
    """Lengths 1..9 cross the generator's 4-word buffer."""
    long = fs.trajectory_uniforms(5, 30, 42)
    for length in (*range(1, 10), 17, 42):
        assert np.array_equal(long[:length], fs.trajectory_uniforms(5, 30, length)), length


@pytest.mark.parametrize("start", [1, 2, 3, 6, 405])
def test_a_start_row_off_the_counter_is_refused(start):
    with pytest.raises(ValueError, match=f"multiple of 4, not {start}"):
        fs.trajectory_uniforms(0, 3, 4, start)


def test_streams_past_a_fill_chunk_are_those_of_fresh_philox():
    """300 streams span three row-major fill chunks."""
    u = fs.trajectory_uniforms(7, 300, 5, 4)
    for t in (0, 127, 128, 255, 256, 299):
        fresh = np.random.Generator(np.random.Philox(key=(7 << 64) + t))
        assert np.array_equal(u[:, t], fresh.random(9)[4:]), t


@pytest.mark.parametrize(
    "T_list,head",
    [
        ([50, 100, 200, 400, 800], 404),
        ([800, 400, 50, 800], 404),
        ([1, 3, 10, 40], 12),
        ([3, 4], 6),
        ([10, 10], 12),
        ([7], 9),
    ],
)
def test_uniform_blocks_hold_the_rows_of_one_full_draw(T_list, head):
    """The head holds the second-largest distinct T + 2 rows rounded up to 4,
    and covers every row when no row lies past it; each row read, in
    either direction, is that of one full draw."""
    blocks = fs.UniformBlocks(5, 130, T_list)
    full = fs.trajectory_uniforms(5, 130, max(T_list) + 2)
    assert blocks.shape == full.shape
    order = [*range(full.shape[0]), *range(full.shape[0] - 1, -1, -1)]
    for r in order:
        assert np.array_equal(blocks[r], full[r]), r
        held = blocks._block.shape[0]
        assert held == (head if r < head else full.shape[0] - head), r
    for r in (-1, full.shape[0]):
        with pytest.raises(IndexError):
            blocks[r]


def test_shared_draw_gives_the_self_drawn_records():
    """One full draw and the UniformBlocks of T_list, sampled in either order."""
    m = mod.fd_model()
    setup = _entropic(m)
    n = 200
    for T_list in ([1, 3, 10, 40], [40, 3, 10, 1]):
        nodes = fs.ProtocolNodes(m, T_list)
        shared = fs.trajectory_uniforms(9, n, max(T_list) + 2)
        blocks = fs.UniformBlocks(9, n, T_list)
        for T in T_list:
            want = fs.sample_trajectories(m, setup, T, n, 9)
            for uniforms in (shared, blocks):
                got = fs.sample_trajectories(
                    m, setup, T, n, 9, nodes=nodes, uniforms=uniforms
                )
                for f in RECORD_FIELDS + ("delta_a", "varsigma"):
                    assert np.array_equal(getattr(got, f), getattr(want, f)), (T, f)
    for bad in (shared[:41], shared[:, :199], fs.UniformBlocks(9, n, [39])):
        with pytest.raises(ValueError, match="cannot serve T=40, n=200"):
            fs.sample_trajectories(m, setup, 40, n, 9, nodes=nodes, uniforms=bad)


@pytest.mark.parametrize("make", [mod.fd_model, mod.rwa_model])
def test_records_are_uint8_on_the_presets(make):
    m = make()
    setup = _entropic(m)
    assert fs.sample_trajectories(m, setup, 5, 20, seed=1).probe_records.dtype == np.uint8
    assert fs.enumerate_measure(m, setup, 2).probe_records.dtype == np.uint8


def test_records_widen_past_256_outcome_pairs():
    """A 17-level probe has 289 outcome pairs: uint16 records, equal to the oracle's."""
    rng = np.random.default_rng(17)
    h_env, coupling = np.diag(np.linspace(0.0, 1.0, 17)).astype(complex), random_hermitian(rng, 34)
    m = mod.RISModel(
        dim_sys=2,
        dim_env=17,
        h_sys=random_hermitian(rng, 2),
        h_env=lambda s: h_env,
        coupling=lambda s: coupling,
        beta=mod.beta_schedule_1(),
        tau=0.5,
    )
    setup = _entropic(m)
    got = fs.sample_trajectories(m, setup, 2, 50, seed=4)
    assert got.probe_records.dtype == np.uint16
    assert got.probe_records.max() > 255
    _assert_same_records(m, setup, 2, 50, seed=4)
    meas = fs.enumerate_measure(m, setup, 1)
    assert meas.probe_records.dtype == np.uint16
    assert np.array_equal(np.unique(meas.probe_records), np.arange(289))


def test_one_bit_generator_per_call(monkeypatch):
    built = []

    class CountedPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("key"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", CountedPhilox)
    m = mod.fd_model()
    setup = _entropic(m)
    for n in (1, 5000):
        built.clear()
        fs.sample_trajectories(m, setup, 2, n, seed=7)
        assert len(built) == 1, n


CASE_MODELS = dict(CASES)


@pytest.mark.parametrize(
    "name,T,n",
    [("explicit-3x3", 50, 300), ("degenerate-Y", 50, 500), ("fd", 3, 20_000)],
)
def test_real_coordinates_match_all_maps_route(name, T, n):
    """d = 3 with 9 outcome pairs, a degenerate Y, and the wide shape."""
    m = CASE_MODELS[name]
    _assert_same_records(m, _entropic(m), T, n, seed=3)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(hermitian))
def test_hermitian_basis_round_trips(rho):
    d = rho.shape[0]
    B = la.hermitian_basis(d)
    assert np.abs(B.conj().T @ B - np.eye(d * d)).max() < 1e-15
    x = B.conj().T @ la.vec(rho)
    scale = max(np.abs(rho).max(), 1.0)
    assert np.abs(x.imag).max() <= 1e-15 * scale
    assert np.abs(B @ x.real - la.vec(rho)).max() <= 1e-15 * scale
    assert abs(x.real[:d].sum() - np.trace(rho).real) <= 1e-15 * d * scale


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_forward_maps_are_real_in_the_hermitian_basis(name, m):
    F = fs.ProtocolNodes(m, [7]).steps.forward
    B = la.hermitian_basis(m.dim_sys)
    real = B.conj().T @ F @ B
    scale = np.abs(real).max(axis=(1, 2, 3, 4))
    assert (np.abs(real.imag).max(axis=(1, 2, 3, 4)) <= 1e-14 * scale).all()


def test_maps_that_do_not_preserve_hermiticity_are_refused():
    """X -> 1e-6 i X added to one outcome pair's map at s = 3/4."""
    m = mod.fd_model()
    setup = _entropic(m)
    nodes = fs.ProtocolNodes(m, [4])
    steps = nodes.steps
    forward = steps.forward.copy()
    forward[2, 0, 1] += 1e-6j * np.eye(4)
    nodes.__dict__["steps"] = replace(steps, forward=forward)
    with pytest.raises(fs.FullStatsError, match=r"s=0\.75 do not preserve Hermiticity"):
        fs.sample_trajectories(m, setup, 4, 10, seed=0, nodes=nodes)
    nodes.__dict__["steps"] = steps
    fs.sample_trajectories(m, setup, 4, 10, seed=0, nodes=nodes)
