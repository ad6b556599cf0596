"""Dense complex linear algebra helpers for small matrices.

Conventions used throughout the package:

* operators are plain ``numpy`` arrays of complex dtype;
* superoperators act on operators through the *column-stacking*
  vectorization ``vec(X)[i + d*j] = X[i, j]``, under which the map
  ``X -> A X B`` has matrix ``B.T kron A`` and a Kraus map
  ``X -> sum_i K_i X K_i*`` has matrix ``sum_i conj(K_i) kron K_i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
KRAUS_MATRIX_TOL = 1e-10
EIGENVALUE_FLOOR = 1e-14
GROUP_TOL = 1e-9


class LinalgError(ValueError):
    """Raised on contract violations (non-Hermitian input, domain errors...)."""


def as_complex(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise LinalgError("non-finite entries")
    return M


def _adjoint(M: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack (..., n, n)."""
    return np.swapaxes(M.conj(), -1, -2)


def _matrix_max(M: np.ndarray) -> np.ndarray:
    """The largest entry of each matrix of a stack (..., n, m)."""
    return M.max(axis=(-2, -1))


def assert_hermitian(M: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """The Hermitian part of M, checked against each matrix's own scale.

    M may carry leading stack axes; each matrix is checked on its own, so a
    large matrix in the stack does not loosen the check of a small one.
    """
    M = as_complex(M)
    scale = np.maximum(_matrix_max(np.abs(M)), 1.0)
    if np.any(_matrix_max(np.abs(M - _adjoint(M))) > tol * scale):
        raise LinalgError("matrix is not Hermitian within tolerance")
    return 0.5 * (M + _adjoint(M))


def tensor_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with (A kron B)[(i*rB+k),(j*cB+l)] = A[i,j] B[k,l]."""
    return np.kron(as_complex(A), as_complex(B))


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix, or of each of a stack."""
    X = np.swapaxes(np.asarray(X, dtype=complex), -1, -2)
    return X.reshape(*X.shape[:-2], -1)


def unvec(x: np.ndarray, d: int | None = None) -> np.ndarray:
    """The inverse of ``vec``; x may carry leading stack axes."""
    x = np.asarray(x, dtype=complex)
    if d is None:
        d = round(np.sqrt(x.shape[-1]))
    return np.swapaxes(x.reshape(*x.shape[:-1], d, d), -1, -2)


def hermitian_basis(d: int) -> np.ndarray:
    """An orthonormal Hilbert-Schmidt basis of the Hermitian d x d matrices.

    Returns the unitary (d^2, d^2) matrix B whose columns are the vecs of the
    basis: first the diagonal units E_aa, then for each a < b the pair
    (E_ab + E_ba)/sqrt(2) and i(E_ab - E_ba)/sqrt(2). B^* vec(X) is real for
    Hermitian X, and its first d entries sum to Tr X. A map that preserves
    Hermiticity has the real matrix B^* M B in these coordinates.
    """
    E = np.eye(d, dtype=complex)
    units = [np.outer(E[a], E[a]) for a in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            ab, ba = np.outer(E[a], E[b]), np.outer(E[b], E[a])
            units += [(ab + ba) / np.sqrt(2), 1j * (ab - ba) / np.sqrt(2)]
    return vec(np.stack(units)).T


def hermitian_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each of a stack.

    Returns (eigenvalues ascending, unitary eigenvector matrix V) with
    H V = V diag(w); the residual of each matrix is verified at its own
    scale. A stack (..., n, n) gives w (..., n) and V (..., n, n), each
    bitwise equal to the decomposition of that matrix alone.
    """
    H = assert_hermitian(H)
    w, V = np.linalg.eigh(H)
    scale = np.maximum(_matrix_max(np.abs(H)), 1.0)
    if np.any(_matrix_max(np.abs(H @ V - V * w[..., None, :])) > 1e-10 * scale):
        raise LinalgError("hermitian_eig residual exceeds tolerance")
    return w, V


def distinct_sorted(x) -> np.ndarray:
    """The distinct values of a 1-d array in ascending order, compared exactly.

    It returns what ``np.unique(x)`` does for NaN-free input. numpy 2.4's
    plain ``unique`` asks ``np.ma.is_masked``, which imports ``numpy.ma``
    (12-15 ms and about 1 MB per process) for a module rislab never uses.
    """
    x = np.sort(np.asarray(x).reshape(-1))
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def outcome_gaps(w: np.ndarray) -> np.ndarray:
    """Where an ascending spectrum, or each row of a stack (..., n), opens an outcome.

    Entry k is True when w[k + 1] - w[k] exceeds GROUP_TOL * (1 + max|w|),
    taken over that spectrum alone: neighbours closer than this belong to
    one outcome, a distinct value of the measured observable.
    """
    w = np.asarray(w, dtype=float)
    return np.diff(w) > GROUP_TOL * (1.0 + np.abs(w).max(axis=-1, keepdims=True))


def outcome_groups(w: np.ndarray) -> np.ndarray:
    """Membership (n_outcomes, w.size) of an ascending spectrum in its outcomes
    (``outcome_gaps``)."""
    gaps = outcome_gaps(w)
    labels = np.concatenate(([0], np.cumsum(gaps)))
    return labels == np.arange(labels[-1] + 1)[:, None]


def herm_exp(H: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * H) for Hermitian H (exact through the eigendecomposition).

    For a stack H (..., n, n), ``scale`` may be one value per matrix.
    """
    w, V = hermitian_eig(H)
    return (V * np.exp(np.asarray(scale)[..., None] * w)[..., None, :]) @ _adjoint(V)


def herm_power(H: np.ndarray, p: float) -> np.ndarray:
    """H**p for positive-semidefinite Hermitian H, or for each of a stack.

    Negative or fractional powers require eigenvalues above EIGENVALUE_FLOOR;
    smaller eigenvalues raise rather than being clipped.
    """
    w, V = hermitian_eig(H)
    needs_positive = (p < 0) or (p != int(p))
    if needs_positive and w.min() < EIGENVALUE_FLOOR:
        raise LinalgError(f"eigenvalue {w.min():.3e} below floor for power {p}")
    return (V * np.power(w.astype(complex), p)[..., None, :]) @ _adjoint(V)


def herm_log(H: np.ndarray) -> np.ndarray:
    w, V = hermitian_eig(H)
    if w.min() < EIGENVALUE_FLOOR:
        raise LinalgError(f"eigenvalue {w.min():.3e} below floor for log")
    return (V * np.log(w)) @ V.conj().T


def general_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues with right and left eigenvectors of a general square matrix.

    Left eigenvectors are returned as columns ``l`` with ``l* M = w l*``,
    i.e. ``M* l = conj(w) l``. Column k of Vl is the unit left singular vector
    of M - w_k Id at its smallest singular value, from one stacked SVD, so it
    belongs to w_k by construction, also where M is defective.
    """
    M = as_complex(M)
    if M.shape[0] != M.shape[1]:
        raise LinalgError("general_eig requires a square matrix")
    w, Vr = np.linalg.eig(M)
    U = np.linalg.svd(M - w[:, None, None] * np.eye(len(M)))[0]
    return w, Vr, U[:, :, -1].T


def ordered_product(stack: np.ndarray) -> np.ndarray:
    """stack[T-1] ... stack[0] over axis -3 of (..., T, n, n), T >= 1, as ceil(log2 T)
    stacked matmuls of neighbour pairs; at odd T the last matrix joins the last pair."""
    M = np.asarray(stack)
    while M.shape[-3] > 1:
        pairs = M[..., 1::2, :, :] @ M[..., : M.shape[-3] - 1 : 2, :, :]
        if M.shape[-3] % 2:
            pairs[..., -1, :, :] = M[..., -1, :, :] @ pairs[..., -1, :, :]
        M = pairs
    return M[..., 0, :, :]


def simpson(y, x):
    """Composite Simpson integral of a 1-d y over the grid x, on an odd number of nodes.

    Simpson's rule on every pair of intervals, with the operations of
    ``scipy.integrate.simpson(y, x=x)`` (scipy 1.17) in the same order, so on
    a grid of distinct nodes the result is bitwise equal to it, dtype
    included. Callers bump an even node count to odd; an even one is refused.
    """
    y = np.asarray(y)
    N = y.shape[0]
    if N < 3 or N % 2 == 0:
        raise ValueError(f"simpson needs an odd number of nodes >= 3, got {N}")
    h = np.diff(np.asarray(x))
    h0 = h[0 : N - 2 : 2].astype(float, copy=False)
    h1 = h[1 : N - 1 : 2].astype(float, copy=False)
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (
        y[0 : N - 2 : 2] * (2.0 - 1.0 / h0divh1)
        + y[1 : N - 1 : 2] * (hsum * (hsum / hprod))
        + y[2:N:2] * (2.0 - h0divh1)
    )
    return np.sum(tmp, axis=0)


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    M = as_complex(M)
    if M.shape[0] != M.shape[1]:
        raise LinalgError("spectral_radius requires a square matrix")
    return float(np.abs(np.linalg.eigvals(M)).max())


def trace_norm(M: np.ndarray) -> float:
    """Sum of singular values."""
    M = as_complex(M)
    if M.shape[0] != M.shape[1]:
        raise LinalgError("trace_norm requires a square matrix")
    return float(np.linalg.svd(M, compute_uv=False).sum())


@dataclass(frozen=True)
class SuperOperator:
    """A linear map on d x d matrices.

    Stored as a d^2 x d^2 matrix acting on column-stacked operators, with an
    optional Kraus family and completely-positive / trace-preserving flags.
    """

    dim: int
    matrix: np.ndarray
    kraus: tuple[np.ndarray, ...] | None = None
    completely_positive: bool = False
    trace_preserving: bool = False

    def __post_init__(self):
        d = self.dim
        object.__setattr__(self, "matrix", as_complex(self.matrix))
        if self.matrix.shape != (d * d, d * d):
            raise LinalgError("superoperator matrix has wrong shape")
        if self.kraus is not None:
            object.__setattr__(
                self, "kraus", tuple(as_complex(K) for K in self.kraus)
            )
            rebuilt = kraus_to_matrix(self.kraus)
            scale = max(np.abs(self.matrix).max(), 1.0)
            if np.abs(rebuilt - self.matrix).max() > KRAUS_MATRIX_TOL * scale:
                raise LinalgError("Kraus family does not match stored matrix")
        if self.trace_preserving:
            if self.kraus is not None:
                acc = sum(K.conj().T @ K for K in self.kraus)
            else:
                acc = self.adjoint_apply(np.eye(d))
            if np.abs(acc - np.eye(d)).max() > KRAUS_MATRIX_TOL:
                raise LinalgError("trace-preserving flag violated")

    @classmethod
    def from_kraus(
        cls, kraus, *, trace_preserving: bool | None = None
    ) -> "SuperOperator":
        kraus = tuple(as_complex(K) for K in kraus)
        d = kraus[0].shape[0]
        if trace_preserving is None or trace_preserving:
            defect = np.abs(sum(K.conj().T @ K for K in kraus) - np.eye(d)).max()
            if trace_preserving and defect > KRAUS_MATRIX_TOL:
                raise LinalgError("trace-preserving flag violated")
            trace_preserving = defect <= KRAUS_MATRIX_TOL
        # The matrix is built from this very family, so the pair check and
        # the completeness sum of __post_init__ would only repeat the work.
        op = cls(dim=d, matrix=kraus_to_matrix(kraus), completely_positive=True)
        object.__setattr__(op, "kraus", kraus)
        object.__setattr__(op, "trace_preserving", bool(trace_preserving))
        return op

    def apply(self, X: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(X), self.dim)

    def adjoint_apply(self, X: np.ndarray) -> np.ndarray:
        """Apply the Hilbert-Schmidt adjoint."""
        return unvec(self.matrix.conj().T @ vec(X), self.dim)

    def adjoint(self) -> "SuperOperator":
        kraus = None
        if self.kraus is not None:
            kraus = tuple(K.conj().T for K in self.kraus)
        return SuperOperator(
            dim=self.dim,
            matrix=self.matrix.conj().T,
            kraus=kraus,
            completely_positive=self.completely_positive,
            trace_preserving=False,
        )


def kron_stack(kraus) -> np.ndarray:
    """The matrices conj(K_n) kron K_n of each Kraus map, stacked along n."""
    K = np.asarray(kraus, dtype=complex)
    n, d = K.shape[:2]
    pairs = K.conj()[:, :, None, :, None] * K[:, None, :, None, :]
    return pairs.reshape(n, d * d, d * d)


def kraus_to_matrix(kraus) -> np.ndarray:
    """sum_n conj(K_n) kron K_n."""
    return kron_stack(kraus).sum(axis=0)
