"""Landauer's balance sigma_tot = Delta S + E(Delta_y) read from the node table.

The library takes sigma_tot of a length-T chain from one ordered product of
the nodes' first-order jets. Against it: the per-step oracle, which walks
the chain through the joint evolution U (rho x xi) U* and its partial
traces (``oracles.step_productions``); enumeration's exact mean of varsigma;
and, for the stationary rwa, the paper's limit sigma_tot -> S(rho_i |
rho_inv(0)) at rate 1/T (fd's sigma_tot ~ T * Lambda'(0) is checked on the
CLI's landauer.csv in test_cli).
"""

import time

import numpy as np
import pytest

from rislab import fullstats as fs
from rislab import model as mod
from rislab import spectral as sp

import oracles
from conftest import random_faithful_state
from test_kernel import CASES

PRESETS = [("fd", mod.fd_model), ("rwa", mod.rwa_model)]


def _gibbs(m):
    return mod.gibbs_state(m.h_sys, m.beta(0.0))


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_sigma_tot_matches_the_per_step_oracle(name, m):
    rho_i = random_faithful_state(np.random.default_rng(7), m.dim_sys)
    nodes = fs.ProtocolNodes(m, [3, 50])
    for T in (3, 50):
        want = oracles.step_productions(m, rho_i, T).sum()
        got = fs.total_entropy_production(m, rho_i, T, nodes=nodes)
        assert abs(got - want) <= 1e-12 * abs(want), (T, got, want)


@pytest.mark.parametrize("name,make", PRESETS, ids=[p[0] for p in PRESETS])
def test_per_step_productions_are_nonnegative(name, make):
    m = make()
    for T in (3, 10, 50):
        assert oracles.step_productions(m, _gibbs(m), T).min() >= -1e-12


@pytest.mark.parametrize("name,make", PRESETS, ids=[p[0] for p in PRESETS])
def test_sigma_tot_is_the_mean_of_enumerated_varsigma(name, make):
    m = make()
    setup = fs.entropic_setup(_gibbs(m))
    nodes = fs.ProtocolNodes(m, range(1, 7))
    for T in range(1, 7):
        want = fs.enumerate_measure(m, setup, T, nodes=nodes).entropy_production()
        got = fs.total_entropy_production(m, setup.rho_i, T, nodes=nodes)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (T, got, want)


def test_rwa_sigma_tot_converges_to_the_relative_entropy_at_rate_one_over_T():
    """The stationary preset's sigma_tot tends to S(rho_i | rho_inv(0)), the
    mean of the explicit limit law of varsigma, with error ~ 1/T."""
    m = mod.rwa_model()
    rho_i = _gibbs(m)
    rho0 = sp.invariant_state(mod.reduced_map(m, 0.0))
    target = oracles.relative_entropy(rho_i, rho0)
    Ts = np.array([800, 1600, 3200, 6400, 12800])
    nodes = fs.ProtocolNodes(m, Ts)
    err = [abs(fs.total_entropy_production(m, rho_i, T, nodes=nodes) - target) for T in Ts]
    slope = np.polyfit(np.log(Ts), np.log(err), 1)[0]
    assert abs(slope + 1.0) < 0.3, slope


def test_sigma_tot_at_T_800_is_one_stacked_product():
    """Given its table, fd at T = 800 takes milliseconds (the per-step walk
    took 0.7 s); best of 5 against a 20 ms gate."""
    m = mod.fd_model()
    rho_i, nodes = _gibbs(m), fs.ProtocolNodes(m, [800])
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        fs.total_entropy_production(m, rho_i, 800, nodes=nodes)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.02, best
