from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

from rislab import adiabatic as ad
from rislab import config as cfg
from rislab import model as mod
from rislab.cli import _initial_state
from rislab.fullstats import evolved_state
from rislab.linalg import trace_norm, unvec, vec
from rislab.mgfldp import stationary_log_mgf_theta

import oracles
from conftest import close, random_faithful_state, random_hermitian
from test_cli import BASE, _run
from test_stacked_decomposition import _flip_map, _shift_map

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
    d2 = fd_family.dim**2
    P0 = fd_family.decomposition(0.0).peripheral_projector
    for idx in (25, 50, 100):
        W = ad.intertwiner(fd_family, nodes[: idx + 1])
        Ps = fd_family.decomposition(nodes[idx]).peripheral_projector
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


def _use_shift_kernels(monkeypatch) -> mod.RISModel:
    """A 3-level system whose every family is period 3: its kernel's only
    term is a cyclic shift whose weights vary in s."""
    original = ad.kraus_families

    def shifts(model, s_values):
        fams = original(model, s_values)
        kron = np.zeros_like(fams.kron)
        weights = [(1 + 0.5 * s, 1.2 - 0.4 * s * s, 0.8 + 0.3 * s) for s in s_values]
        kron[:, 0] = [_shift_map(c) for c in weights]
        return replace(fams, kron=kron)

    monkeypatch.setattr(ad, "kraus_families", shifts)
    v = random_hermitian(np.random.default_rng(0), 6)
    return mod.RISModel(
        dim_sys=3,
        dim_env=2,
        h_sys=np.diag([0.0, 1.0, 2.0]),
        h_env=lambda s: np.diag([0.0, 1.0]),
        coupling=lambda s: v,
        beta=lambda s: 1.0,
        tau=0.5,
    )


@pytest.mark.parametrize(
    "period,T_doubling", [(2, (20, 40, 80, 160)), (3, (30, 60, 120))]
)
def test_cycle_labels_are_carried_to_the_end(monkeypatch, period, T_doubling):
    """At z > 1 each node's u is fixed only up to a z-th root of unity, and
    the decompositions at s = 0 and s = 1 label their cycle projectors
    differently; carrying the labels along the protocol keeps the 1/T decay,
    at even and odd T."""
    if period == 2:
        _use_flip_kernels(monkeypatch)
        model, rho_i = mod.fd_model(), np.diag([0.3, 0.7])
    else:
        model, rho_i = _use_shift_kernels(monkeypatch), np.diag([0.2, 0.3, 0.5])
    fam = ad.AdiabaticFamily(model, 0.5)
    assert fam.decomposition(0.5).period == period
    # the labels differ at the ends
    u0, u1 = (fam.decomposition(s).cycle_unitary for s in (0.0, 1.0))
    assert np.abs(u0 - u1).max() > 0.5
    for Ts in (np.array(T_doubling), np.array(T_doubling) + 1):
        errs = [
            trace_norm(
                ad.exact_deformed_chain(fam, rho_i, T)
                - ad.deformed_adiabatic_state(fam, rho_i, T)
            )
            for T in Ts
        ]
        slope = np.polyfit(np.log(Ts), np.log(errs), 1)[0]
        assert abs(slope + 1.0) <= 0.3, (Ts, errs)


def test_a_cycle_unitary_that_jumps_is_refused(monkeypatch):
    """Where u changes by more than a root of unity between two neighbouring
    nodes of theta's grid, the labels cannot be carried."""
    _use_flip_kernels(monkeypatch)
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    fam.prepare(np.linspace(0.0, 1.0, 201))
    row = fam._rows[0.5]
    fam._decs["cycle_unitary"][row] = np.eye(2) * 1j
    with pytest.raises(ValueError, match=r"from s=0\.495 to s=0\.5"):
        ad.deformed_adiabatic_state(fam, np.diag([0.3, 0.7]), 20)


@pytest.mark.parametrize(
    "preset,alpha", [("fd", 0.5), ("fd", 0.0), ("rwa", 0.5), ("flip", 0.5)]
)
def test_stacked_route_matches_per_node_oracle(monkeypatch, preset, alpha):
    """The node stacks give what per-node generators, projector differences
    and chain walks give: bitwise where no chain is multiplied, to round-off
    where the library takes an ordered product and the oracle walks. Each
    route runs on a fresh family."""
    if preset == "flip":
        _use_flip_kernels(monkeypatch)
    model = PRESETS[preset]()

    def family():
        return ad.AdiabaticFamily(model, alpha)

    if preset == "flip":
        assert family().decomposition(0.5).period == 2
    nodes = np.linspace(0.0, 1.0, 41)
    Ws = oracles.intertwiner(family(), nodes)
    for k in (1, 2, 17, 40):  # W at node k is the intertwiner of the nodes up to it
        assert close(ad.intertwiner(family(), nodes[: k + 1]), Ws[k])
    if preset == "flip":
        assert np.abs(Ws[-1] - np.eye(4)).max() > 1e-3  # dP != 0
    for n in (51, 80):
        assert ad.theta_integral(family(), n_nodes=n) == oracles.theta_integral(
            family(), n_nodes=n
        )
    for T in (10, 40):
        assert close(
            ad.product_decomposition_residual(family(), T),
            oracles.product_decomposition_residual(family(), T),
        )
    grid = np.linspace(0.0, 1.0, 11)
    assert family().gap_bound(grid) == oracles.gap_bound(family(), grid)
    fam, rho_i = family(), np.diag([0.3, 0.7]).astype(complex)
    x = vec(rho_i)
    for j in range(1, 21):
        x = oracles.normalized(fam, j / 20)[0] @ x
    assert close(ad.exact_deformed_chain(family(), rho_i, 20), unvec(x, 2))


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


def test_adiabatic_task_integrates_theta_once_per_grid(monkeypatch, tmp_path):
    """T = 10 and 20 share the 201-node grid; T = 300 needs a 301-node one.

    Each row equals the residual from a family of its own.
    """
    grids = []

    def counted(y, *, x):
        grids.append(x.size)
        return simpson(y, x=x)

    monkeypatch.setattr(ad, "simpson", counted)
    doc = {**BASE, "numeric": {**BASE["numeric"], "T_list": [10, 20, 300]}}
    out = _run("adiabatic", tmp_path, doc)
    assert grids == [201, 301]
    rows = (out / "adiabatic.csv").read_text().strip().split("\n")[1:]
    run = cfg.load_config(doc)
    rho_i = _initial_state(run)
    for row, T in zip(rows, (10, 20, 300)):
        fam = ad.AdiabaticFamily(run.model, run.alpha)
        want = trace_norm(
            ad.exact_deformed_chain(fam, rho_i, T) - ad.deformed_adiabatic_state(fam, rho_i, T)
        )
        assert row.split(",") == [str(T), "0.5", repr(want)]


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
        approx = oracles.adiabatic_state(m, rho_i, T)
        assert np.isclose(np.trace(approx).real, 1.0, atol=1e-10)
        errs.append(trace_norm(exact - approx))
    assert errs[0] > errs[1] > errs[2]


def test_adiabatic_state_refuses_a_period_above_one(monkeypatch):
    """The oracle pairs cycle labels of two independent decompositions, which
    is right at period 1 only; the flip family has period 2."""
    _use_flip_kernels(monkeypatch)
    m = mod.fd_model()
    assert ad.AdiabaticFamily(m, 0.0).decomposition(0.0).period == 2
    with pytest.raises(ValueError, match="period 2"):
        oracles.adiabatic_state(m, np.diag([0.3, 0.7]), 10)


def test_adiabatic_state_midpoint(rng):
    m = mod.fd_model()
    rho_i = random_faithful_state(rng)
    T = 200
    k = 100
    rho = np.asarray(rho_i, dtype=complex)
    for j in range(1, k + 1):
        rho = mod.reduced_map(m, j / T).apply(rho)
    approx = oracles.adiabatic_state(m, rho_i, T, k)
    assert trace_norm(rho - approx) < 0.05
