import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rislab import linalg as la

import oracles
from conftest import close


def _rand_c(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_vec_column_stacking():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(la.vec(X), [1.0, 3.0, 2.0, 4.0])
    assert np.allclose(la.unvec(la.vec(X)), X)


def test_vec_axb_identity(rng):
    """vec(A X B) = (B^T kron A) vec(X), the defining property of the convention."""
    A, B, X = (_rand_c(rng, (3, 3)) for _ in range(3))
    lhs = la.vec(A @ X @ B)
    rhs = np.kron(B.T, A) @ la.vec(X)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_tensor_product_indexing():
    A = np.array([[0.0, 1.0], [2.0, 3.0]])
    B = np.eye(2)
    K = la.tensor_product(A, B)
    # (A kron B)[(i dB + k), (j dB + l)] = A[i,j] B[k,l]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert K[i * 2 + k, j * 2 + l] == A[i, j] * B[k, l]


def test_partial_traces_on_product(rng):
    A = _rand_c(rng, (2, 2))
    B = _rand_c(rng, (3, 3))
    M = la.tensor_product(A, B)
    assert np.abs(oracles.partial_trace_env(M, 2, 3) - np.trace(B) * A).max() < 1e-12
    assert np.abs(oracles.partial_trace_sys(M, 2, 3) - np.trace(A) * B).max() < 1e-12


def test_partial_trace_consistency(rng):
    M = _rand_c(rng, (6, 6))
    assert np.isclose(np.trace(oracles.partial_trace_env(M, 2, 3)), np.trace(M))
    assert np.isclose(np.trace(oracles.partial_trace_sys(M, 3, 2)), np.trace(M))


def test_hermitian_eig_residual_and_order(rng):
    H = _rand_c(rng, (4, 4))
    H = H + H.conj().T
    w, V = la.hermitian_eig(H)
    assert np.all(np.diff(w) >= 0)
    assert np.abs(H @ V - V @ np.diag(w)).max() < 1e-10
    assert np.abs(V @ V.conj().T - np.eye(4)).max() < 1e-10


def test_hermitian_eig_rejects_non_hermitian(rng):
    with pytest.raises(la.LinalgError):
        la.hermitian_eig(_rand_c(rng, (3, 3)))


def test_matrix_function_vs_series(rng):
    """exp through the spectrum must match a truncated Taylor series."""
    H = _rand_c(rng, (3, 3))
    H = 0.3 * (H + H.conj().T)
    expected = np.zeros((3, 3), dtype=complex)
    term = np.eye(3, dtype=complex)
    for k in range(1, 40):
        expected += term
        term = term @ H / k
    assert np.abs(la.herm_exp(H) - expected).max() < 1e-12


def test_herm_power_and_log(rng):
    X = _rand_c(rng, (3, 3))
    P = X @ X.conj().T + 0.1 * np.eye(3)
    half = la.herm_power(P, 0.5)
    assert np.abs(half @ half - P).max() < 1e-10
    inv = la.herm_power(P, -1.0)
    assert np.abs(inv @ P - np.eye(3)).max() < 1e-10
    assert np.abs(la.herm_exp(la.herm_log(P)) - P).max() < 1e-9


def test_herm_power_domain_error():
    P = np.diag([1.0, 0.0])
    with pytest.raises(la.LinalgError):
        la.herm_power(P, -1.0)
    with pytest.raises(la.LinalgError):
        la.herm_log(P)


def _assert_left_right(M, w, Vr, Vl):
    scale = np.abs(M).max()
    assert np.abs(M @ Vr - Vr * w).max() < 1e-10 * scale
    assert np.abs(Vl.conj().T @ M - w[:, None] * Vl.conj().T).max() < 1e-10 * scale
    assert np.allclose(np.linalg.norm(Vl, axis=0), 1.0, rtol=0, atol=1e-12)


def test_general_eig_left_right(rng):
    """Against scipy.linalg.eig(left=True) on random matrices and a CP map:
    the same eigenvalues, the eigen-residuals on both sides, and each left
    vector on scipy's line and paired with its right vector as scipy's is."""
    import scipy.linalg

    kraus = list(_rand_c(rng, (3, 3, 3)))
    cp_map = la.SuperOperator.from_kraus(kraus, trace_preserving=False).matrix
    for M in [_rand_c(rng, (n, n)) for n in (4, 9, 16)] + [cp_map]:
        w, Vr, Vl = la.general_eig(M)
        _assert_left_right(M, w, Vr, Vl)
        ws, Vls, Vrs = scipy.linalg.eig(M, left=True)
        for k in range(len(w)):
            j = np.argmin(np.abs(ws - w[k]))
            assert abs(ws[j] - w[k]) < 1e-10 * np.abs(w).max()
            assert abs(abs(Vl[:, k].conj() @ Vls[:, j]) - 1.0) < 1e-8
            pair = abs(Vl[:, k].conj() @ Vr[:, k])
            assert pair > 0 and np.isclose(pair, abs(Vls[:, j].conj() @ Vrs[:, j]))


def test_general_eig_left_vectors_of_a_defective_matrix():
    """A nilpotent Jordan block leaves Vr singular; every left vector is still
    a unit left eigenvector of its own eigenvalue."""
    M = np.diag([1.0, 1.0, 0.0], 1) + np.diag([0.0, 0.0, 0.0, 0.5])
    w, Vr, Vl = la.general_eig(M)
    assert np.array_equal(w, [0.0, 0.0, 0.0, 0.5])
    _assert_left_right(M, w, Vr, Vl)


def test_spectral_radius_and_trace_norm():
    M = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert la.spectral_radius(M) == 0.0
    assert np.isclose(la.trace_norm(M), 2.0)
    H = np.diag([3.0, -1.0])
    assert np.isclose(la.spectral_radius(H), 3.0)
    assert np.isclose(la.trace_norm(H), 4.0)


def test_superoperator_from_kraus(rng):
    K1 = _rand_c(rng, (2, 2))
    K2 = _rand_c(rng, (2, 2))
    # normalize to trace preserving
    S = K1.conj().T @ K1 + K2.conj().T @ K2
    root_inv = la.herm_power(S, -0.5)
    kraus = [K1 @ root_inv, K2 @ root_inv]
    L = la.SuperOperator.from_kraus(kraus)
    assert L.trace_preserving and L.completely_positive
    X = _rand_c(rng, (2, 2))
    direct = sum(K @ X @ K.conj().T for K in kraus)
    assert np.abs(L.apply(X) - direct).max() < 1e-12
    assert np.isclose(np.trace(L.apply(X)), np.trace(X))


def test_superoperator_adjoint_pairing(rng):
    kraus = [_rand_c(rng, (2, 2)) for _ in range(3)]
    L = la.SuperOperator.from_kraus(kraus, trace_preserving=False)
    A, B = _rand_c(rng, (2, 2)), _rand_c(rng, (2, 2))
    lhs = np.trace(A.conj().T @ L.apply(B))
    rhs = np.trace(L.adjoint().apply(A).conj().T @ B)
    assert abs(lhs - rhs) < 1e-12


def test_superoperator_kraus_mismatch_raises():
    with pytest.raises(la.LinalgError):
        la.SuperOperator(
            dim=2,
            matrix=np.eye(4),
            kraus=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
        )


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 5)),
        elements=st.sampled_from([-2.0, -1.0, -1.0 + 1e-12, 0.0, 1e-10, 0.5, 3.0]),
    )
)
def test_stacked_outcome_gaps_equal_each_spectrum_alone(W):
    """Each row's gaps against its own GROUP_TOL * (1 + max|w|), bitwise."""
    W = np.sort(W, axis=1)
    gaps = la.outcome_gaps(W)
    for w, g in zip(W, gaps):
        want = np.diff(w) > la.GROUP_TOL * (1.0 + np.abs(w).max())
        assert np.array_equal(g, want)
        labels = np.concatenate(([0], np.cumsum(want)))
        assert np.array_equal(la.outcome_groups(w), labels == np.arange(labels[-1] + 1)[:, None])


@pytest.mark.parametrize("N", [*range(3, 42, 2), 201, 801])
def test_simpson_is_bitwise_scipy(N):
    """The port equals scipy's simpson bit for bit and in dtype on odd grids."""
    from scipy.integrate import simpson as scipy_simpson

    rng = np.random.default_rng(N)
    grids = (np.linspace(0.0, 1.0, N), np.sort(rng.uniform(-1.0, 2.0, N)))
    for x in grids:
        for y in (rng.standard_normal(N), _rand_c(rng, N)):
            got, want = la.simpson(y, x), scipy_simpson(y, x=x)
            assert np.array_equal(got, want)
            assert np.asarray(got).dtype == np.asarray(want).dtype


@pytest.mark.parametrize("N", [1, 2, 4, 200])
def test_simpson_refuses_an_even_grid(N):
    with pytest.raises(ValueError, match="odd number of nodes"):
        la.simpson(np.ones(N), np.linspace(0.0, 1.0, N))


def test_ordered_product_is_the_sequential_walk(rng):
    """stack[T-1] ... stack[0] by pairwise products equals the walk that
    multiplies one matrix at a time, to 1e-12 relative, for every T up to 65
    (odd T, powers of 2 and their neighbours), with and without a leading
    batch axis; T = 1 gives stack[0] itself, and the stack is not written."""
    for T in range(1, 66):
        stack = _rand_c(rng, (3, T, 4, 4)) / 2
        before = stack.copy()
        batched = la.ordered_product(stack)
        assert batched.shape == (3, 4, 4)
        for b in range(3):
            want = stack[b, 0]
            for M in stack[b, 1:]:
                want = M @ want
            assert close(batched[b], want), (T, b)
            assert close(la.ordered_product(stack[b]), want), (T, b)
        assert np.array_equal(stack, before)
    assert np.array_equal(la.ordered_product(stack[:, :1]), stack[:, 0])
