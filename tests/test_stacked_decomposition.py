"""The stacked peripheral decomposition against one map decomposed alone.

``oracles.peripheral_decomposition`` is the per-map routine the library used
before ``peripheral_decompositions`` decomposed a whole stack in one pass.
Both must agree on the period and the eigenvalues exactly and on rho, iota
and every projector to round-off; both must refuse the same maps, and the
stacked call must name the refused map's index. The structural tests count
LAPACK eigen-solver entries, so that a per-node route cannot come back
unnoticed.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rislab import adiabatic as ad
from rislab import cli
from rislab import config as cfg
from rislab import mgfldp as mg
from rislab import model as mod
from rislab import spectral as sp
from rislab.linalg import SuperOperator, unvec, vec

import oracles
from conftest import random_small_model
from test_cli import BASE

ALPHAS = (-1.0, 0.0, 0.5, 2.0)
S_GRID = np.linspace(0.0, 1.0, 21)
RTOL = 1e-13


def _flip_map(a: float = 1.0, b: float = 1.0) -> np.ndarray:
    """A period-2 map X -> K1 X K1* + K2 X K2* with K1 = a|0><1|, K2 = b|1><0|."""
    K1 = np.array([[0.0, a], [0.0, 0.0]], dtype=complex)
    K2 = np.array([[0.0, 0.0], [b, 0.0]], dtype=complex)
    return SuperOperator.from_kraus([K1, K2], trace_preserving=False).matrix


def _shift_map(c, V=None) -> np.ndarray:
    """A period-3 map on 3x3 matrices with Kraus operators K_j = c_j|j+1><j|
    (indices mod 3), each conjugated by the unitary V when one is given."""
    V = np.eye(3) if V is None else V
    shift = np.roll(np.eye(3), 1, axis=0)  # |j+1><j|
    kraus = [c[j] * V @ (shift * (np.arange(3) == j)) @ V.conj().T for j in range(3)]
    return SuperOperator.from_kraus(kraus, trace_preserving=False).matrix


def _deformed_stack(model, alpha, s_grid=S_GRID) -> np.ndarray:
    return mod.kraus_families(model, s_grid).deformed_matrix(alpha)


def _oracle(M: np.ndarray):
    L = SuperOperator(dim=math.isqrt(len(M)), matrix=M)
    return oracles.peripheral_decomposition(L)


def _close(a, b, rtol=RTOL) -> bool:
    return np.abs(a - b).max() <= rtol * max(np.abs(b).max(), 1.0)


def _assert_matches(dec, want, rtol=RTOL):
    assert dec.period == want.period
    assert dec.spectral_radius == want.spectral_radius
    assert np.array_equal(dec.eigenvalues, want.eigenvalues)
    for name in ("rho", "iota", "cycle_unitary", "peripheral_projector"):
        assert _close(getattr(dec, name), getattr(want, name), rtol), name
    for name in ("spectral_projectors", "cycle_projectors"):
        got, ref = getattr(dec, name), getattr(want, name)
        assert len(got) == len(ref) == dec.period, name
        assert all(_close(a, b, rtol) for a, b in zip(got, ref)), name


def _assert_stack_matches(stack):
    decs = sp.peripheral_decompositions(stack)
    assert len(decs) == len(stack)
    for M, dec in zip(stack, decs):
        _assert_matches(dec, _oracle(M))
    return decs


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("make", [mod.fd_model, mod.rwa_model], ids=["fd", "rwa"])
def test_presets_match_oracle(make, alpha):
    decs = _assert_stack_matches(_deformed_stack(make(), alpha))
    assert {d.period for d in decs} == {1}


def test_random_models_match_oracle():
    rng = np.random.default_rng(808)
    for _ in range(4):
        m = random_small_model(rng)
        for alpha in (0.0, 0.8, -1.3):
            _assert_stack_matches(_deformed_stack(m, alpha, np.linspace(0, 1, 5)))


def test_period_two_family_matches_oracle():
    stack = np.stack([_flip_map(a, b) for a, b in ((1, 1), (0.5, 1.5), (2.0, 0.3))])
    decs = _assert_stack_matches(stack)
    assert [d.period for d in decs] == [2, 2, 2]
    assert np.isclose(decs[1].spectral_radius, 0.75)


def test_mixed_periods_in_one_stack():
    fd = _deformed_stack(mod.fd_model(), 0.5, [0.0, 0.4, 1.0])
    stack = np.stack([_flip_map(), fd[0], _flip_map(0.5, 1.5), fd[1], fd[2]])
    decs = _assert_stack_matches(stack)
    assert [d.period for d in decs] == [2, 1, 2, 1, 1]


def _random_unitary(rng, d):
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(X)[0]


def test_period_three_family_matches_oracle():
    """Cyclic shifts, in the standard basis and in a random one, where u is
    not diagonal."""
    V = _random_unitary(np.random.default_rng(3), 3)
    weights = ((1.0, 1.0, 1.0), (1.5, 0.8, 1.1), (0.3, 2.0, 0.9))
    stack = np.stack([_shift_map(c, W) for c in weights for W in (None, V)])
    decs = _assert_stack_matches(stack)
    assert [d.period for d in decs] == [3] * 6
    u = decs[3].cycle_unitary
    assert np.abs(u - np.diag(np.diag(u))).max() > 0.1


def test_periods_one_two_and_three_in_one_stack():
    """On 3x3 matrices: a random primitive map (z = 1), a population flip
    between span{|0>} and span{|1>, |2>} (z = 2, a rank-two cycle
    projector) and a cyclic shift (z = 3)."""
    rng = np.random.default_rng(5)
    kraus = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    primitive = SuperOperator.from_kraus(list(kraus), trace_preserving=False).matrix
    E = np.eye(3)
    arrows = ((1.0, 1, 0), (0.6, 2, 0), (0.9, 0, 1), (1.3, 0, 2))  # c|a><b|
    flip = SuperOperator.from_kraus(
        [c * np.outer(E[a], E[b]) for c, a, b in arrows], trace_preserving=False
    ).matrix
    turned = _shift_map((1.0, 0.7, 1.4), _random_unitary(rng, 3))
    stack = np.stack([flip, turned, primitive, _shift_map((0.5, 1, 2)), flip])
    decs = _assert_stack_matches(stack)
    assert [d.period for d in decs] == [2, 3, 1, 3, 2]
    assert np.linalg.matrix_rank(decs[0].cycle_projectors[1]) == 2


def test_one_map_view_is_the_stack():
    M = _deformed_stack(mod.fd_model(), 0.5, [0.3])[0]
    one = sp.peripheral_decomposition(SuperOperator(dim=2, matrix=M))
    _assert_matches(one, _oracle(M))
    assert np.array_equal(one.rho, sp.peripheral_decompositions(M[None])[0].rho)


def _bad_maps():
    """One 4x4 map per certified failure of the decomposition."""
    traceless = np.diag([0.5, 1.0, 0.3, 0.2]).astype(complex)  # top: |1><0|
    v = np.array([1.0, 0.0, 0.0, -0.5])  # vec(diag(1, -1/2)): not PSD
    Pv = np.outer(v, v) / (v @ v)
    off_root = np.diag([1.0, np.exp(1j * (np.pi + 0.01)), 0.5, 0.2])
    return {
        "zero spectral radius": np.zeros((4, 4), dtype=complex),
        "cyclic group": np.eye(4, dtype=complex),
        "root of unity": off_root,
        "zero trace": traceless,
        "not PSD": (Pv + 0.1 * (np.eye(4) - Pv)).astype(complex),
        "not faithful": np.diag([1.0, -1.0, 0.5, 0.2]).astype(complex),
    }


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("kind", list(_bad_maps()))
def test_bad_map_is_refused_and_named(kind, where):
    bad = _bad_maps()[kind]
    with pytest.raises(sp.SpectralError):
        _oracle(bad)
    good = _deformed_stack(mod.fd_model(), 0.5, np.linspace(0, 1, 4))
    stack = np.insert(good, where, bad, axis=0)
    with pytest.raises(sp.SpectralError, match=rf"matrix {where} of the stack"):
        sp.peripheral_decompositions(stack)


def test_period_change_along_the_protocol(monkeypatch):
    """AdiabaticFamily refuses a protocol whose period changes, within a
    block and across blocks."""
    original = ad.kraus_families

    def flips_late(model, s_values):
        """The kernels, with the flip map as the only term (dy = 0) past 0.5."""
        fams = original(model, s_values)
        late = np.asarray(s_values) > 0.5
        kron = fams.kron.copy()
        kron[late] = 0.0
        kron[late, 0] = _flip_map(0.8, 0.9)
        return replace(fams, kron=kron)

    monkeypatch.setattr(ad, "kraus_families", flips_late)
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    with pytest.raises(ValueError, match="period changed"):
        fam.prepare(np.linspace(0.0, 1.0, 11))
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    fam.decomposition(0.2)
    with pytest.raises(ValueError, match="period changed"):
        fam.decomposition(0.9)


@pytest.fixture
def eigen_calls(monkeypatch):
    """Count every entry into a LAPACK eigen-solver or QR through numpy or scipy."""
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "qr"):
        counted(np.linalg, name)
    counted(scipy.linalg, "eig")
    return calls


@pytest.fixture
def validations(monkeypatch):
    """Count every SuperOperator validation."""
    calls = []
    original = SuperOperator.__post_init__

    def counted(self):
        calls.append(self.dim)
        original(self)

    monkeypatch.setattr(SuperOperator, "__post_init__", counted)
    return calls


def test_node_sets_build_no_superoperator(tmp_path, validations):
    """spectrum and prepare decompose the kernel's matrix stack directly, and
    the chain and Lambda tasks read each node's map as the kernel's matrix."""
    config = cfg.load_config({"model": {"preset": "fd"}, "numeric": {"s_nodes": 201}})
    cli.task_spectrum(config, str(tmp_path))
    assert (tmp_path / "spectrum.csv").exists()
    ad.AdiabaticFamily(mod.fd_model(), 0.5).prepare(np.linspace(0.0, 1.0, 600))
    config = cfg.load_config(BASE)
    for task in (cli.task_lambda, cli.task_x0, cli.task_simulate, cli.task_balance):
        task(config, str(tmp_path))
    assert (tmp_path / "x0.csv").exists()
    assert validations == []


def test_derivatives_at_zero_decompose_in_one_pass(eigen_calls):
    ev = mg.LambdaEvaluator(mod.fd_model(), 201)
    eigen_calls.clear()
    ev.derivatives_at_zero()
    # one stacked decomposition of the 201 maps, not an eig per node
    assert len(eigen_calls) <= 10, len(eigen_calls)


@pytest.mark.parametrize("period", [1, 2])
def test_one_eig_per_stack_and_none_of_its_adjoint(eigen_calls, period):
    """The right eigenvectors come from one eig of the stack; iota from a
    bordered solve, not from an eig of the adjoint stack; the other entries
    are eigh to phase-fix rho and iota and, at z = 2, eigvalsh to check rho
    faithful and eigh for rho^(-1) in u = rho^(-1) X."""
    if period == 1:
        stack = _deformed_stack(mod.fd_model(), 0.5)
    else:
        stack = np.stack([_flip_map(1.0 + x, 1.5 - x) for x in np.linspace(0, 1, 9)])
    eigen_calls.clear()
    decs = sp.peripheral_decompositions(stack)
    assert set(decs.period) == {period}
    assert eigen_calls == ["eig", "eigh", "eigh"] + ["eigvalsh", "eigh"] * (period > 1)


def test_perturbed_left_eigenvector_is_refused_naming_its_node(monkeypatch):
    """A bordered solution off [[M* - conj(lambda), vec rho], [vec rho*, 0]]
    [vec iota; mu] = [0; 1] is refused at its node by its residual."""
    stack = _deformed_stack(mod.fd_model(), 0.5, np.linspace(0, 1, 6))
    d2 = stack.shape[-1]
    solve = np.linalg.solve

    def off_at_node_3(a, b):
        x = solve(a, b)
        if np.shape(b) == (d2 + 1, 1):  # the bordered system's right-hand side
            x[3, 0] += 1e-6
        return x

    sp.peripheral_decompositions(stack)
    monkeypatch.setattr(np.linalg, "solve", off_at_node_3)
    with pytest.raises(sp.SpectralError, match="matrix 3 of the stack: left eigenvector residual"):
        sp.peripheral_decompositions(stack)


def test_iota_solves_the_bordered_system():
    """iota is the left Perron vector with Tr(iota rho) = 1 to round-off,
    on the presets at every alpha and on a period-3 stack."""
    stacks = [_deformed_stack(make(), a) for make in (mod.fd_model, mod.rwa_model) for a in ALPHAS]
    stacks.append(np.stack([_shift_map((1.5, 0.8, 1.1)), _shift_map((0.3, 2.0, 0.9))]))
    for stack in stacks:
        decs = sp.peripheral_decompositions(stack)
        left = np.einsum("nba,nb->na", stack.conj(), vec(decs.iota))
        lam = decs.spectral_radius[:, None]
        assert np.abs(left - lam * vec(decs.iota)).max() <= 1e-13 * lam.max()
        assert np.abs(np.trace(decs.iota @ decs.rho, axis1=1, axis2=2) - 1).max() <= 1e-14


def _adjoint_eig_iota(M, rho):
    """iota as the adjoint's eigenvector at conj(lambda), phase-fixed and
    normalised to Tr(iota rho) = 1, as the stack read it before the
    bordered solve."""
    w, V = np.linalg.eig(M.conj().T)
    X = oracles._phase_fixed_psd(unvec(V[:, np.argmax(np.abs(w))], math.isqrt(len(M))))
    return X / np.trace(X @ rho).real


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("make", [mod.fd_model, mod.rwa_model], ids=["fd", "rwa"])
def test_iota_equals_the_adjoint_eigenvector(make, alpha):
    stack = _deformed_stack(make(), alpha)
    decs = sp.peripheral_decompositions(stack)
    for M, rho, iota in zip(stack, decs.rho, decs.iota):
        assert _close(iota, _adjoint_eig_iota(M, rho))


def test_period_two_stack_decomposes_in_one_pass(eigen_calls):
    s = np.linspace(0.0, 1.0, 256)
    stack = np.stack([_flip_map(1.0 + 0.5 * x, 1.5 - x * x) for x in s])
    decs = sp.peripheral_decompositions(stack)
    assert set(decs.period) == {2}
    # stacked cycle unitaries: no eig or QR per node
    assert len(eigen_calls) <= 10, len(eigen_calls)


def test_prepare_decomposes_in_blocks(eigen_calls, kraus_builds):
    n = 600
    blocks = -(-n // ad.PREPARE_BLOCK)
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    fam.prepare(np.linspace(0.0, 1.0, n))
    assert len(kraus_builds) == n
    # a few stacked calls per block (kernel build and decomposition), not
    # one or more per node
    assert len(eigen_calls) <= 10 * blocks, len(eigen_calls)


def test_residual_makes_no_one_map_decomposition(monkeypatch, eigen_calls, kraus_builds):
    def refuse(L):
        raise AssertionError("one-map peripheral_decomposition called")

    monkeypatch.setattr(sp, "peripheral_decomposition", refuse)
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    r = ad.product_decomposition_residual(fam, 100)
    assert 0.0 < r < 1.0
    nodes = len(kraus_builds)
    assert nodes > 500
    assert len(set(kraus_builds)) == nodes  # each node built once
    assert len(eigen_calls) <= 10 * -(-nodes // ad.PREPARE_BLOCK) + 10


def test_adiabatic_layer_indexes_no_per_node_decomposition(monkeypatch, tmp_path):
    """The residual and the adiabatic task read node stacks: the only
    per-node PeripheralDecomposition they make are the lookups at s = 0
    and s = 1, and a lookup reads the cache, sharing its builds."""
    made, lookups = [], []
    init, lookup = sp.PeripheralDecomposition.__init__, ad.AdiabaticFamily.decomposition

    def counted_init(self, *args, **kwargs):
        made.append(kwargs.get("period"))
        init(self, *args, **kwargs)

    def counted_lookup(self, s):
        lookups.append(float(s))
        return lookup(self, s)

    monkeypatch.setattr(sp.PeripheralDecomposition, "__init__", counted_init)
    monkeypatch.setattr(ad.AdiabaticFamily, "decomposition", counted_lookup)
    ad.product_decomposition_residual(ad.AdiabaticFamily(mod.fd_model(), 0.5), 40)
    assert made == [] and lookups == []
    cli.task_adiabatic(cfg.load_config(BASE), str(tmp_path))
    assert set(lookups) == {0.0, 1.0}
    assert len(made) == len(lookups) == 2 * len(BASE["numeric"]["T_list"])


def test_lookup_shares_the_stack_cache(kraus_builds):
    """decomposition(s) and read share one cache: no node is built twice,
    and a lookup's fields are the rows that read gathers."""
    fam = ad.AdiabaticFamily(mod.fd_model(), 0.5)
    dec = fam.decomposition(0.25)
    s = [0.0, 0.25, 0.5]
    rho, P, F = (fam.read(field, s) for field in ("rho", "spectral_projectors", "F"))
    fam.decomposition(0.5)  # read above: from the cache, not built
    assert kraus_builds == [0.25, 0.0, 0.5]
    assert np.array_equal(rho[1], dec.rho)
    assert np.array_equal(P[1], np.stack(dec.spectral_projectors))
    M = _deformed_stack(mod.fd_model(), 0.5, [0.25])[0]
    assert np.array_equal(F[1], M / dec.spectral_radius)


@st.composite
def kraus_maps(draw):
    d = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    entries = st.floats(-1.0, 1.0)
    # every entry drawn on its own: no shared fill value
    shape = (2, n, d, d)
    parts = draw(hnp.arrays(np.float64, shape, elements=entries, fill=st.nothing()))
    kraus = list(parts[0] + 1j * parts[1])
    return SuperOperator.from_kraus(kraus, trace_preserving=False)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(L=kraus_maps())
def test_random_kraus_maps_match_oracle(L):
    """Both routes refuse the same maps; where they decompose, they agree,
    the peripheral projector is idempotent and Tr(iota rho) = 1."""
    try:
        want = oracles.peripheral_decomposition(L)
    except sp.SpectralError:
        with pytest.raises(sp.SpectralError, match="matrix 0 of the stack"):
            sp.peripheral_decompositions(L.matrix[None])
        return
    dec = sp.peripheral_decompositions(L.matrix[None])[0]
    _assert_matches(dec, want)
    P = dec.peripheral_projector
    assert np.abs(P @ P - P).max() <= 1e-8
    assert abs(np.trace(dec.iota @ dec.rho) - 1.0) <= 1e-12


@st.composite
def cyclic_stacks(draw, structured=False):
    """1-3 maps of one cyclic structure z in {2, 3} on C^(2z): each of 2-3
    Kraus operators carries 2x2 block j to block j + 1 (mod z), and only
    irreducible families are kept (one operator or 1x1 blocks give
    reducible ones). Block entries are uniform in [-1, 1] + i[-1, 1] from a
    drawn seed or, ``structured``, each from {0, +-1, +-i} plus sparse raw
    floats of [-1, 1] (exact zeros, +-1, subnormals, ...)."""
    z, n, count = draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    shape = (count, n, z, 2, 2)
    if structured:
        picks = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 4)))
        raw = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0), fill=st.just(0.0)))
        blocks = np.array([0, 1, -1, 1j, -1j])[picks] + raw
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        parts = rng.uniform(-1.0, 1.0, (2,) + shape)
        blocks = parts[0] + 1j * parts[1]
    K = np.zeros((count, n, z, 2, z, 2), dtype=complex)
    for j in range(z):
        K[:, :, (j + 1) % z, :, j, :] = blocks[:, :, j]
    kraus = K.reshape(count, n, 2 * z, 2 * z)
    assume(all(sp.is_irreducible(list(family)) for family in kraus))
    maps = [SuperOperator.from_kraus(list(f), trace_preserving=False).matrix for f in kraus]
    return z, np.stack(maps)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=cyclic_stacks())
def test_random_cyclic_maps_match_oracle(case):
    """Irreducible maps with a cyclic block structure: the stacked
    decomposition equals the one-map oracle, and each map has period z."""
    z, stack = case
    decs = _assert_stack_matches(stack)
    assert set(decs.period) == {z}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=cyclic_stacks(structured=True))
def test_structured_cyclic_maps_match_oracle(case):
    """Cyclic maps with entries 0, +-1, +-i and raw floats: a map the oracle
    refuses (such entries can leave rho singular) the stack refuses too,
    naming it; the others decompose as the oracle does. Both routes read u
    as rho^(-1) X, X the map's eigenvector at lambda theta, so they agree to
    RTOL scaled by the first-order sensitivity of that input: 1 / gap for
    a peripheral modulus gap under 1% and cond(rho) / 100 above 100. The
    gap is taken past each map's own period, a multiple of z: a block may
    split into lines that the map cycles too."""
    z, stack = case
    refused = np.zeros(len(stack), dtype=bool)
    for i, M in enumerate(stack):
        try:
            _oracle(M)
        except sp.SpectralError:
            refused[i] = True
    if refused.any():
        with pytest.raises(sp.SpectralError, match=f"matrix {refused.argmax()} of the stack"):
            sp.peripheral_decompositions(stack)
    if refused.all():
        return
    kept = stack[~refused]
    decs = sp.peripheral_decompositions(kept)
    moduli = np.sort(np.abs(np.linalg.eigvals(kept)), axis=1)
    for M, dec, mod_row in zip(kept, decs, moduli):
        want = _oracle(M)
        gap = 1.0 - mod_row[-dec.period - 1] / mod_row[-1]
        cond = np.linalg.cond(want.rho)
        _assert_matches(dec, want, RTOL * max(1.0, 1e-2 / gap) * max(1.0, cond / 1e2))
    assert all(p % z == 0 for p in decs.period)


def _cycle_identities(dec) -> float:
    """The worst of |p_m^2 - p_m|, |sum_m p_m - Id| and |u p_m - theta^m p_m|."""
    p, u, z = np.stack(dec.cycle_projectors), dec.cycle_unitary, dec.period
    theta = np.exp(2j * np.pi * np.arange(z) / z)[:, None, None]
    return max(
        np.abs(p @ p - p).max(),
        np.abs(p.sum(axis=0) - np.eye(len(u))).max(),
        np.abs(u @ p - theta * p).max(),
    )


# Period-2 maps of entries 0, +-1, +-i (and one round-off-sized entry),
# as (block 0 -> 1, block 1 -> 0) of each Kraus operator. Double precision
# reads their eigenvector at -lambda, so u, only to about 1e-9.
PERIOD_TWO_STRUCTURED = {
    # u departs from normal by about 5.6e-9, and the oracle's projectors on
    # eig's eigenvectors of u missed sum_m p_m = Id by as much
    "oracle-was-off": [
        ([[-1j, 0.5 - 1j], [0, -1]], [[-3e-17, -1], [-1j, -1j]]),
        ([[-1j, 1j], [-3e-17, 0]], [[1j, 1], [0, 1j]]),
    ],
    # u's eigenvalues +-1 only to 3.4e-9: the Fourier projectors (Id +- u)/2
    # missed p^2 = p by 8.5e-10
    "stack-was-off": [
        ([[0, 0], [2.2e-16, 1j]], [[1, -1j], [-1, 0.5 - 1j]]),
        ([[-1j, 0], [-1j, 2.2e-16]], [[0.5 + 1j, -1j], [-1, 1j]]),
    ],
}


@pytest.mark.parametrize("name", list(PERIOD_TWO_STRUCTURED))
def test_period_two_cycle_projectors_by_their_identities(name):
    """Each route's cycle projectors satisfy their defining identities to
    round-off, and the routes agree to RTOL: the oracle reads u's
    eigenspaces from eigh of its Hermitian part, and the stack's Fourier
    projectors take one McWeeny step. (A 60-digit solve puts both routes
    2.0e-9 from the exact (Id +- u)/2 on the first map and within 1e-15 on
    the second: what remains is the error of u itself.)"""
    K = np.zeros((2, 2, 2, 2, 2), dtype=complex)  # (operator, block out, i, block in, j)
    for k, (up, down) in enumerate(PERIOD_TWO_STRUCTURED[name]):
        K[k, 1, :, 0, :], K[k, 0, :, 1, :] = up, down
    M = SuperOperator.from_kraus(list(K.reshape(2, 4, 4)), trace_preserving=False).matrix
    dec = sp.peripheral_decompositions(M[None])[0]
    want = _oracle(M)
    assert dec.period == want.period == 2
    assert _cycle_identities(dec) <= 1e-13
    assert _cycle_identities(want) <= 1e-13
    _assert_matches(dec, want)


def _cyclic_map(blocks) -> np.ndarray:
    """The map of Kraus operators that each carry 2x2 block j of C^(2z) to
    block j + 1 (mod z) by blocks[operator][j], as ``cyclic_stacks`` builds it."""
    blocks = np.array(blocks, dtype=complex)
    n, z = blocks.shape[:2]
    K = np.zeros((n, z, 2, z, 2), dtype=complex)
    for j in range(z):
        K[:, (j + 1) % z, :, j, :] = blocks[:, j]
    return SuperOperator.from_kraus(list(K.reshape(n, 2 * z, 2 * z)), trace_preserving=False).matrix


# Structured cyclic maps of a seeded numpy search (2 900 irreducible maps of
# entries 0, +-1, +-i, some perturbed by 1e-300, 5e-324, 5.7e-24, 3e-17, 1e-8
# or a uniform float) that the oracle decomposes. With iota read off an eig
# of the adjoint stack the stack refused the first eight ("eigenvector has
# (near-)zero trace", "cycle operator does not commute with iota": that eig
# returned no eigenvector at lambda), and on the last three its iota was
# 3.6e-9 to 5.5e-9 off the oracle's.
STRUCTURED_BORDERED = {
    "was-zero-trace-a": [
        ([[0, 0], [1, -1j]], [[-1, 0], [-1j, -0.9055916912220738 - 1j]]),
        ([[1j, -0.5742449198068826], [1e-300, 0]], [[-1j, -1j], [-1, 0]]),
        ([[0, 0], [-1j, 1]], [[1, 1j], [0, 0]]),
    ],
    "was-zero-trace-b": [
        (
            [[0, 0], [-1j, 1j]],
            [[1, -1], [3e-17 - 1j, -1j]],
            [[1j, 0.28281837770558726], [0, -1]],
        ),
        (
            [[1, 1], [1j, -0.8946531833222289]],
            [[-1, -1], [-5e-324, 0]],
            [[1, -1j], [0.945244754766345 - 1j, -1j]],
        ),
    ],
    "was-zero-trace-c": [
        ([[-1, -1], [0, 5e-324 - 1j]], [[0, 1], [1, 1]], [[-1, -0.99999999], [1, 0]]),
        ([[-1, -1], [0, 1j]], [[-1j, -1j], [-1j, 0]], [[-1j, -1j], [-1, 1j]]),
    ],
    "was-zero-trace-d": [
        (
            [[-1j, 1e-300], [1, -0.9561375432585923 + 1j]],
            [[-1j, -1], [1, 1j]],
            [[-1j, -1j], [0, 0.5]],
        ),
        (
            [[1j, 0], [-1.661361312209434, 0]],
            [[1j, -1], [0, 0]],
            [[-1j, -1j], [-1j, 1j]],
        ),
    ],
    "was-zero-trace-e": [
        (
            [[-1, -1e-08 + 1j], [0, -1j]],
            [[-1.0163645856229142, 5.7e-24 - 1j], [-1, 0]],
            [[1, 1j], [1e-300 + 1j, 1j]],
        ),
        ([[1, 1], [0, -1j]], [[0, 1j], [-1, -1j]], [[-1, -1e-300 - 1j], [1j, -1j]]),
    ],
    "was-zero-trace-f": [
        (
            [[1j, -1], [-1e-300, -2]],
            [[-1j, -1j], [-1j, 1j]],
            [[-1, 1j], [5e-324, 5e-324 + 1j]],
        ),
        (
            [[-1, -1j], [-0.3873021928841922, -1j]],
            [[-0.1516610808090244 - 1j, 0.9999999999999998], [-1, 1j]],
            [[-1j, 1j], [0, 1]],
        ),
    ],
    "was-not-commuting-a": [
        ([[1j, 0], [0, 0]], [[0.9740852551892101, -1j], [0, -1j]]),
        ([[0, -0.5 + 1j], [1, -1]], [[0, 5.7e-24], [-1j, 1]]),
    ],
    "was-not-commuting-b": [
        ([[1j, 0], [0, -1]], [[1j, 1], [1j, 1]], [[1, -1j], [-1j, 0]]),
        (
            [[-1j, 0], [-1j, 1]],
            [[0, 1j], [1, -5e-324 + 1j]],
            [[1, 5.7e-24 - 1j], [0.7289921728956616 - 1j, -1j]],
        ),
    ],
    "iota-was-off-a": [
        ([[-3e-17, 0], [1, -1j]], [[0, 1], [1j, 1]]),
        ([[-1e-08, 0], [-0.7671795456889186 - 1j, -1]], [[0, 0], [-1j, 0]]),
        ([[-1, -1j], [-1, -1j]], [[0, 0], [-1j, 1]]),
    ],
    "iota-was-off-b": [
        ([[-2.2e-16 - 1j, 1], [0, 1j]], [[0, -1], [1, -1]]),
        ([[1j, -1], [1j, -1j]], [[0, -1], [-1, -1j]]),
    ],
    "iota-was-off-c": [
        ([[3e-17 + 1j, -1j], [0, 0]], [[1, 1], [0.07464593516591922 - 1j, -1j]]),
        ([[-1, -1e-300 + 1j], [-1j, 0]], [[2.2e-16, 0], [0, 1]]),
    ],
}


@pytest.mark.parametrize("name", list(STRUCTURED_BORDERED))
def test_structured_maps_decompose_with_the_bordered_iota(name):
    M = _cyclic_map(STRUCTURED_BORDERED[name])
    dec = sp.peripheral_decompositions(M[None])[0]
    _assert_matches(dec, _oracle(M))


# Structured cyclic maps drawn by ``test_structured_cyclic_maps_match_oracle``.
# On the first, eig's eigenvectors at the peripheral eigenvalues have residual
# 1.2e-9 (the map has one entry of 3.8e-23, and all its other eigenvalues are
# the 1.8e-4 roots of it), so before their columns were refined both routes
# read u 1.2e-9 and 2.5e-9 off the exact one (a 60-digit solve). The second
# carries blocks cyclically with z = 3, yet each block splits into two cycled
# lines: its period is 6.
STRUCTURED_FOUND = {
    "eig-residual-1e-9": (
        [
            ([[1, 0], [0, 3.8184676705819585e-23]], [[0, 1], [0, 1]], [[0, 1], [0, 0]]),
            ([[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 0], [1, 0]]),
        ],
        3,
    ),
    "period-six-in-three-blocks": (
        [
            ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]),
            ([[0, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 0], [1, 0]]),
        ],
        6,
    ),
}


@pytest.mark.parametrize("name", list(STRUCTURED_FOUND))
def test_structured_cyclic_maps_drawn_before(name):
    blocks, period = STRUCTURED_FOUND[name]
    M = _cyclic_map(blocks)
    dec = sp.peripheral_decompositions(M[None])[0]
    assert dec.period == period
    _assert_matches(dec, _oracle(M))
