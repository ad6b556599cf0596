import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

from rislab import adiabatic as ad
from rislab import cli
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
    stages = mod.protocol_nodes(200)  # 100 RK4 steps
    d2 = fd_family.dim**2
    P0 = fd_family.decomposition(0.0).peripheral_projector
    for idx in (25, 50, 100):
        W = ad.intertwiner(fd_family, stages[: 2 * idx + 1])
        Ps = fd_family.decomposition(stages[2 * idx]).peripheral_projector
        assert np.abs((np.eye(d2) - Ps) @ W @ P0).max() < 1e-8


def test_intertwiner_evaluates_each_generator_node_once(monkeypatch):
    """RK4 over T steps reads one generator stack at its 2T + 1 distinct
    stages: each step's end node is the next step's start. It reads the slope
    of the spectral projectors and the projectors at those nodes, no other
    field, and the family keeps rows at those nodes only."""
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    reads = _record_reads(monkeypatch)
    stages = mod.protocol_nodes(200)
    ad.intertwiner(fam, stages)
    assert [(how, field) for how, field, _ in reads] == [
        ("slope", "spectral_projectors"), ("read", "spectral_projectors")
    ]
    centres = reads[0][2]
    assert centres.size == np.unique(centres).size == 201
    assert np.array_equal(centres, stages)
    assert np.array_equal(reads[1][2], centres)
    assert sorted(fam._rows) == sorted(fam._slope_rows) == sorted(centres.tolist())


def _record_reads(monkeypatch) -> list:
    """Record every (accessor, field, s_values) that ``AdiabaticFamily.read``
    and ``AdiabaticFamily.slope`` serve."""
    reads = []
    for how in ("read", "slope"):
        original = getattr(ad.AdiabaticFamily, how)

        def recorded(family, field, s_values, how=how, original=original):
            reads.append((how, field, np.asarray(s_values, dtype=float)))
            return original(family, field, s_values)

        monkeypatch.setattr(ad.AdiabaticFamily, how, recorded)
    return reads


def test_each_reader_gathers_only_its_fields(monkeypatch):
    """The exact chain reads F; theta reads the slope of rho and iota on its
    grid; the residual reads the projectors' slope and the projectors for
    the intertwiner, then F and the projectors, as does the gap bound; the
    label shift reads the cycle unitaries."""
    _use_flip_kernels(monkeypatch)
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    reads = _record_reads(monkeypatch)

    def fields_read(run):
        reads.clear()
        run()
        return [(how, field) for how, field, _ in reads]

    T = 20
    chain = fields_read(lambda: ad.exact_deformed_chain(fam, np.diag([0.3, 0.7]), T))
    assert chain == [("read", "F")]
    assert np.array_equal(reads[0][2], np.arange(1, T + 1) / T)
    assert fields_read(lambda: ad.theta_integral(fam)) == [("slope", "rho"), ("read", "iota")]
    grid = ad._theta_grid(201)
    assert [s.tolist() for *_, s in reads] == [grid.tolist()] * 2
    assert fields_read(lambda: ad._label_shift(fam, grid, 2)) == [("read", "cycle_unitary")]
    assert fields_read(lambda: ad.product_decomposition_residual(fam, T)) == [
        ("slope", "spectral_projectors"),
        ("read", "spectral_projectors"),
        ("read", "F"),
        ("read", "spectral_projectors"),
    ]
    assert fields_read(lambda: fam.gap_bound(grid)) == [("read", "F"), ("read", "spectral_projectors")]


@pytest.mark.parametrize("kernels", ["fd", "rwa", "flip", "shift"])
def test_slopes_equal_the_difference_of_read_neighbours(monkeypatch, kernels):
    """Each slope is bitwise (f(hi) - f(lo)) / (hi - lo) of the neighbours'
    rows as ``read`` gives them, at periods 1, 2 and 3, across blocks of
    neighbours and at the clamped ends. The slope's family builds each s
    once and keeps rows only at the nodes that are another's neighbour."""
    model = PRESETS.get(kernels, mod.fd_model)()
    if kernels == "flip":
        _use_flip_kernels(monkeypatch)
    elif kernels == "shift":
        model = _use_shift_kernels(monkeypatch)
    builds = _record_builds(monkeypatch)
    inner = 0.5 + ad.DERIV_STEP  # a node that is the upper neighbour of 0.5
    s = np.append(np.linspace(0.0, 1.0, 301), inner)
    fam = ad.AdiabaticFamily(model, 0.5)
    slopes = {field: fam.slope(field, s) for field in ad.SLOPE_FIELDS}
    # 2 x 302 neighbours, of which 0, 1 and the inner node are rows
    assert len(builds) == len(set(builds)) == 2 * s.size
    assert sorted(fam._rows) == [0.0, inner, 1.0]
    assert fam.decomposition(0.5).period == {"flip": 2, "shift": 3}.get(kernels, 1)
    ref = ad.AdiabaticFamily(model, 0.5)
    lo, hi = ad._neighbours(s)
    for field, slope in slopes.items():
        diff = ref.read(field, hi) - ref.read(field, lo)
        assert np.array_equal(slope, diff / (hi - lo).reshape(-1, *(1,) * (diff.ndim - 1)))
        assert np.array_equal(fam.slope(field, s[::-1]), slope[::-1])


def test_residual_peak_memory_holds_no_neighbour_rows():
    """At T = 400 the residual reads 801 generator nodes. Keeping both
    centred-difference neighbours of each as rows of the node table peaked
    at 4.3 MB of traced allocations (2 x 2 system, fd); the slope table
    keeps one row of differences per node, and the peak is about 2.5 MB."""
    ad.product_decomposition_residual(ad.AdiabaticFamily(mod.fd_model(), 0.5), 10)
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    tracemalloc.start()
    try:
        ad.product_decomposition_residual(fam, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6, peak
    assert len(fam._rows) == 801


def test_adiabatic_task_keeps_no_neighbour_rows(monkeypatch, tmp_path):
    """On the README numeric block the family's rows are theta's grids, which
    hold every exact chain's nodes k/T, and its slopes are theta's grids: no
    row is a centred-difference neighbour. The 801 nodes k/800 and their
    1 600 inner neighbours are each built once."""
    families, builds = [], _record_builds(monkeypatch)

    class Recorded(ad.AdiabaticFamily):
        def __init__(self, *args):
            super().__init__(*args)
            families.append(self)

    monkeypatch.setattr(ad, "AdiabaticFamily", Recorded)
    T_list = [50, 100, 200, 400, 800]
    numeric = {"s_nodes": 201, "alpha_grid": [-3.0, 2.0, 101], "T_list": T_list,
               "T": 3, "n": 2000, "seed": 0, "alpha": 0.5}
    doc = {"model": {"preset": "fd", "schedule": "beta1", "tau": 0.5}, "numeric": numeric}
    cli.task_adiabatic(cfg.load_config(doc), str(tmp_path))
    (fam,) = families
    grids = {s for T in T_list for s in ad._theta_grid(max(201, T + 1)).tolist()}
    chains = {s for T in T_list for s in mod.protocol_nodes(T)[1:].tolist()}
    assert chains <= grids
    assert set(fam._rows) == set(fam._slope_rows) == grids
    assert len(fam._rows) == 801
    assert len(builds) == len(set(builds)) == 2401


def test_residuals_on_one_family_build_each_s_once(monkeypatch):
    """The residuals at T = 100, 200 and 400 on one family read the stage
    grids k/200, k/400 and k/800, which nest: 801 rows, and 2 401 kernels
    (the rows and their 1 600 inner neighbours), each s built once."""
    builds = _record_builds(monkeypatch)
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    for T in (100, 200, 400):
        ad.product_decomposition_residual(fam, T)
    assert sorted(fam._rows) == sorted(fam._slope_rows) == mod.protocol_nodes(800).tolist()
    assert len(builds) == len(set(builds)) == 2401


def _record_builds(monkeypatch) -> list:
    """Record every node the adiabatic layer builds a kernel at."""
    builds, build = [], ad.kraus_families
    monkeypatch.setattr(
        ad, "kraus_families", lambda m, s: builds.extend(s) or build(m, s)
    )
    return builds


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
    fam.prepare(ad._theta_grid(201))
    fam._fields["cycle_unitary"][fam._rows[0.5]] = np.eye(2) * 1j
    with pytest.raises(ValueError, match=r"from s=0\.495 to s=0\.5"):
        ad.deformed_adiabatic_state(fam, np.diag([0.3, 0.7]), 20)


@pytest.mark.parametrize(
    "preset,alpha", [("fd", 0.5), ("fd", 0.0), ("rwa", 0.5), ("flip", 0.5)]
)
def test_stacked_route_matches_per_node_oracle(monkeypatch, preset, alpha):
    """The node stacks give what per-node generators, projector differences
    and chain walks give: bitwise where no chain is multiplied, to round-off
    where the library takes an ordered product and the oracle walks (the
    residual, a difference of O(1) chains, to round-off in absolute terms).
    Each route runs on a fresh family."""
    if preset == "flip":
        _use_flip_kernels(monkeypatch)
    model = PRESETS[preset]()

    def family():
        return ad.AdiabaticFamily(model, alpha)

    if preset == "flip":
        assert family().decomposition(0.5).period == 2
    stages = mod.protocol_nodes(80)  # 40 RK4 steps
    Ws = oracles.intertwiner(family(), stages)
    for k in (1, 2, 17, 40):  # W at step k is the intertwiner of the stages up to it
        assert close(ad.intertwiner(family(), stages[: 2 * k + 1]), Ws[k])
    if preset == "flip":
        assert np.abs(Ws[-1] - np.eye(4)).max() > 1e-3  # dP != 0
    for n in (51, 80):
        assert ad.theta_integral(family(), n_nodes=n) == oracles.theta_integral(
            family(), n_nodes=n
        )
    for T in (10, 40):
        # the residual is the difference of two O(1) chains of T products,
        # each rounded by the two routes in their own order: compared at 4 T eps
        gap = ad.product_decomposition_residual(family(), T) - (
            oracles.product_decomposition_residual(family(), T)
        )
        assert abs(gap) <= 4 * T * np.finfo(float).eps, (T, gap)
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
