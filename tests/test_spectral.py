import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislab import model as mod
from rislab import spectral as sp
from rislab.linalg import SuperOperator

from conftest import random_small_model


def _flip_kraus():
    """An irreducible family with peripheral period 2 and u = diag(1, -1)."""
    return [
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    ]


def test_period_two_example():
    L = SuperOperator.from_kraus(_flip_kraus(), trace_preserving=True)
    dec = sp.peripheral_decomposition(L)
    assert dec.period == 2
    assert np.isclose(dec.spectral_radius, 1.0)
    assert np.abs(dec.rho - 0.5 * np.eye(2)).max() < 1e-10
    u = dec.cycle_unitary
    # u = diag(1, -1) up to relabelling of the two eigenprojectors
    assert np.abs(np.abs(u) - np.eye(2)).max() < 1e-8
    assert np.isclose(abs(np.trace(u)), 0.0, atol=1e-8)
    assert sorted(np.round(np.linalg.eigvals(u).real)) == [-1, 1]
    # rho * p_m carries weight 1/z on each cycle sector
    for p in dec.cycle_projectors:
        assert np.isclose(np.trace(dec.rho @ p).real, 0.5, atol=1e-9)


def test_irreducibility_verdicts():
    assert sp.is_irreducible(_flip_kraus())
    # diagonal family: every coordinate axis is invariant
    reducible = [np.diag([1.0, 0.5]).astype(complex), np.diag([0.2, 0.9]).astype(complex)]
    ok, witness = sp.is_irreducible(reducible, return_witness=True)
    assert not ok
    assert witness is not None and 0 < witness.shape[1] < 2
    # the witness spans a genuinely invariant subspace
    P = witness @ witness.conj().T
    for K in reducible:
        assert np.abs((np.eye(2) - P) @ K @ P).max() < 1e-8


def _near_reducible(rng, d: int, n: int, k: int, eps: float) -> list[np.ndarray]:
    """n random Kraus operators, block upper triangular in a random unitary
    basis (its first k vectors span an invariant subspace) but for the
    lower-left block, scaled by eps: the subspace is broken at eps."""
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    V = np.linalg.qr(X)[0]
    K = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    K[:, k:, :k] *= eps
    return list(V @ K @ V.conj().T)


def _assert_invariant(kraus, witness):
    d = kraus[0].shape[0]
    assert witness is not None and 0 < witness.shape[1] < d
    P = witness @ witness.conj().T
    for K in kraus:
        leak = np.abs((np.eye(d) - P) @ K @ P).max()
        assert leak <= 1e-8 * max(np.abs(K).max(), 1.0)


FAMILIES = {
    "seed": st.integers(0, 2**32 - 1),
    "d": st.integers(2, 4),
    "n": st.integers(1, 3),
}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(**FAMILIES)
def test_triangular_and_commuting_families_are_reducible(seed, d, n):
    rng = np.random.default_rng(seed)
    triangular = _near_reducible(rng, d, n, int(rng.integers(1, d)), 0.0)
    S = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    commuting = list(S @ (rng.standard_normal((n, d, 1)) * np.linalg.inv(S)))
    for kraus in (triangular, commuting):
        ok, witness = sp.is_irreducible(kraus, return_witness=True)
        assert ok is False
        _assert_invariant(kraus, witness)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=FAMILIES["seed"], d=FAMILIES["d"], n=st.integers(2, 3))
def test_generic_families_are_irreducible(seed, d, n):
    rng = np.random.default_rng(seed)
    kraus = list(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    ok, witness = sp.is_irreducible(kraus, return_witness=True)
    assert ok is True and witness is None


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(**FAMILIES, log_eps=st.floats(-12.0, -6.0))
def test_nearly_reducible_families_get_a_verdict(seed, d, n, log_eps):
    """Inside the tolerance band either verdict is right, but a verdict is
    returned, and a witness, when there is one, is invariant."""
    rng = np.random.default_rng(seed)
    kraus = _near_reducible(rng, d, n, int(rng.integers(1, d)), 10.0**log_eps)
    ok, witness = sp.is_irreducible(kraus, return_witness=True)
    assert isinstance(ok, bool)
    if witness is not None:
        _assert_invariant(kraus, witness)
    assert not (ok and witness is not None)


def test_verdicts_inside_the_tolerance_band():
    """Two pairs whose invariant subspace is broken at about 1e-10.

    d = 4: an algebra test with an absolute rank tolerance of its own called
    this family reducible while no seed's orbit closed. At one tolerance,
    the orbit of Id fills M_d as the seeds' orbits fill C^d. d = 2: the
    orbit of Id stays short of M_d but no seed's orbit closes; the verdict
    is reducible, without a witness.
    """
    kraus = _near_reducible(np.random.default_rng(4), 4, 2, 2, 1e-10)
    ok, witness = sp.is_irreducible(kraus, return_witness=True)
    assert ok is True and witness is None
    kraus = _near_reducible(np.random.default_rng(42), 2, 2, 1, 7e-11)
    ok, witness = sp.is_irreducible(kraus, return_witness=True)
    assert ok is False and witness is None
    assert sp.is_irreducible(kraus) is False


def test_presets_are_primitive():
    for m in (mod.rwa_model(), mod.fd_model()):
        for s in (0.0, 0.5, 1.0):
            L = mod.reduced_map(m, s)
            assert sp.primitivity_check(L)
            dec = sp.peripheral_decomposition(L)
            assert dec.period == 1
            assert np.isclose(dec.spectral_radius, 1.0)
            assert np.isclose(np.trace(dec.rho @ dec.cycle_projectors[0]).real, 1.0)


def test_invariant_state_fixed_point(rng):
    m = random_small_model(rng)
    L = mod.reduced_map(m, 0.5)
    rho = sp.invariant_state(L)
    assert np.abs(L.apply(rho) - rho).max() < 1e-10
    assert np.isclose(np.trace(rho), 1.0)
    assert np.linalg.eigvalsh(rho).min() > 0


def test_peripheral_projectors_resolve_eigenvalues(rng):
    m = random_small_model(rng)
    L = mod.deformed_map(m, 0.5, 0.8)
    dec = sp.peripheral_decomposition(L)
    for lam, P in zip(dec.eigenvalues, dec.spectral_projectors):
        assert np.abs(L.matrix @ P - lam * P).max() < 1e-8
        assert np.abs(P @ P - P).max() < 1e-8
    assert np.isclose(np.trace(dec.iota @ dec.rho).real, 1.0)


def test_conditioned_map_is_tp(rng):
    m = random_small_model(rng)
    fam = mod.kraus_family(m, 0.5)
    weights = np.exp(fam.dy)
    for alpha in (0.5, -1.2):
        V = sp.conditioned_map(fam.kraus, weights, alpha)
        assert V.trace_preserving and V.completely_positive


def test_conditioned_map_preserves_statistics(rng):
    """The conditioning only reweights Kraus terms by a similarity and scale.

    Each conditioned operator hat(V)_n equals
    (v_n^alpha/lam)^{1/2} s V_n s^{-1} with a single (n-independent) pair
    (s, lam), so per-outcome probability ratios of the original deformed
    family are preserved under conjugation of the input state by s^{-1}.
    """
    m = random_small_model(rng)
    fam = mod.kraus_family(m, 0.5)
    weights = np.exp(fam.dy)
    alpha = 0.7
    deformed = SuperOperator.from_kraus(
        [w ** (alpha / 2.0) * K for w, K in zip(weights, fam.kraus)],
        trace_preserving=False,
    )
    dec = sp.peripheral_decomposition(deformed)
    V = sp.conditioned_map(fam.kraus, weights, alpha, dec=dec)
    assert V.trace_preserving
    # the conditioned map fixes the transported state s rho s / normalization
    from rislab.linalg import herm_power

    s_half = herm_power(dec.iota, 0.5)
    moved = s_half @ dec.rho @ s_half
    moved /= np.trace(moved).real
    assert np.abs(V.apply(moved) - moved).max() < 1e-8


def test_growth_rates(rng):
    m = random_small_model(rng)
    fam = mod.kraus_family(m, 0.5)
    lo, hi = sp.growth_rates(fam.kraus, fam.dy)
    assert lo <= 0.0 <= hi
    assert np.isclose(lo, -hi, atol=1e-12)  # dy comes in +/- pairs here
    with pytest.raises(sp.SpectralError):
        sp.growth_rates([np.zeros((2, 2))], [0.0])


def test_growth_rates_of_a_stack():
    """One call over a node stack gives each node's own rates; an operator
    that vanishes drops out of its node only, and a node whose operators all
    vanish is refused by index."""
    fams = mod.kraus_families(mod.fd_model(), np.linspace(0.0, 1.0, 5))
    kraus = fams.kraus.copy()
    kraus[1, np.argmax(fams.dy[1])] = 0.0
    lo, hi = sp.growth_rates(kraus, fams.dy)
    assert lo.shape == hi.shape == (5,)
    for i in range(5):
        assert (lo[i], hi[i]) == sp.growth_rates(kraus[i], fams.dy[i])
    assert hi[1] < fams.dy[1].max() and hi[0] == fams.dy[0].max()
    kraus[3] = 0.0
    with pytest.raises(sp.SpectralError, match="matrix 3 of the stack"):
        sp.growth_rates(kraus, fams.dy)


def test_reducible_map_rejected_by_decomposition():
    # a rank-one projection map has non-faithful peripheral data
    K = [np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)]
    L = SuperOperator.from_kraus(K, trace_preserving=False)
    dec = sp.peripheral_decomposition(L)  # z = 1 still certifies
    assert dec.period == 1
    assert not sp.is_irreducible(K)
