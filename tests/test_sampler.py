"""The sampler's array passes: the all-maps route's records, bit for bit,
from one reusable random stream per call."""

import numpy as np
import pytest

from rislab import fullstats as fs
from rislab import model as mod

import oracles
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
    """Lengths 1..9 cross the generator's 4-word buffer."""
    for length in range(1, 10):
        u = fs._uniforms(seed, 4, length)
        assert u.shape == (length, 4)
        for t in range(4):
            fresh = np.random.Generator(np.random.Philox(key=(seed << 64) + t))
            assert np.array_equal(u[:, t], fresh.random(length)), (length, t)


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
