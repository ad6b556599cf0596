"""Peripheral spectral analysis of completely positive maps.

Provides irreducibility tests for Kraus families, the peripheral
decomposition (spectral radius, cyclic period z, unitary cycle operator u,
invariant/adjoint-invariant operators, spectral projectors and their sum),
and the associated conditioned (trace-preserving) map.

``peripheral_decompositions`` decomposes a whole stack of map matrices in
stacked passes: one ``eig`` for the right eigenvectors, one bordered
``solve`` for the left ones, one stacked ``hermitian_eig`` each for rho and
iota, at a period z > 1 the cycle unitaries of all its maps at once, and
every certificate checked at each matrix's own scale. A node set thus
costs a few LAPACK calls, not a few per node. The result holds node stacks;
indexing it builds one map's ``PeripheralDecomposition``.
``peripheral_decomposition`` is its one-map view; the per-map route of
earlier versions is kept as ``tests/oracles.peripheral_decomposition``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    LinalgError,
    SuperOperator,
    _adjoint,
    _matrix_max,
    as_complex,
    assert_hermitian,
    distinct_sorted,
    general_eig,
    herm_power,
    hermitian_eig,
    unvec,
    vec,
)

PERIPHERAL_REL_TOL = 1e-8
RESIDUAL_TOL = 1e-8
FAITHFUL_TOL = 1e-10
EIG_RESIDUAL_TOL = 1e-12


class SpectralError(ValueError):
    """Raised when the peripheral structure cannot be certified."""


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


def _orbit_span(seed: np.ndarray, kraus) -> np.ndarray:
    """Smallest Kraus-invariant subspace containing ``seed`` (as basis matrix)."""
    basis = seed.reshape(1, -1) / np.linalg.norm(seed)
    while True:
        M = np.concatenate([basis, *(basis @ K.T for K in kraus)])
        _, svals, Vh = np.linalg.svd(M, full_matrices=False)
        rank = int((svals > 1e-10 * svals[0]).sum())
        if rank == basis.shape[0]:
            return Vh[:rank].T  # orthonormal columns
        basis = Vh[:rank]


def is_irreducible(kraus, *, return_witness: bool = False):
    """Decide whether the Kraus family has no common proper invariant subspace.

    By Burnside's theorem it has none exactly when the unital algebra that
    the K_n generate is all of M_d. That algebra is spanned by the words in
    the K_n: the orbit of Id under X -> K_n X. With ``return_witness=True``
    returns ``(bool, witness)``: for a reducible family, an orthonormal
    basis of a proper invariant subspace, the orbit of an eigenvector of a
    K_n or of a random combination of them at the same tolerance. The
    witness is None for an irreducible family, and for one that is reducible
    only within that tolerance, where no such orbit closes.
    """
    kraus = [as_complex(K) for K in kraus]
    d = kraus[0].shape[0]
    Id = np.eye(d, dtype=complex)
    algebra = _orbit_span(vec(Id), [np.kron(Id, K) for K in kraus])
    irreducible = algebra.shape[1] == d * d
    if not return_witness:
        return irreducible
    witness = None
    if not irreducible:
        rng, n = np.random.default_rng(0), len(kraus)
        coeffs = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        combos = np.concatenate([kraus, np.einsum("cn,nab->cab", coeffs, kraus)])
        seeds = np.linalg.eig(combos)[1].swapaxes(1, 2).reshape(-1, d)
        spans = (_orbit_span(seed, kraus) for seed in seeds)
        witness = next((span for span in spans if span.shape[1] < d), None)
    return irreducible, witness


# ---------------------------------------------------------------------------
# peripheral decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeripheralDecomposition:
    """Peripheral data of an irreducible completely positive map.

    Attributes:
        spectral_radius: the common modulus lambda of the peripheral
            eigenvalues (an eigenvalue itself).
        period: z, the number of peripheral eigenvalues lambda*theta^m
            with theta = exp(2*pi*i/z).
        rho: right eigenvector at lambda, a state (trace one, PSD).
        iota: left eigenvector at lambda, PSD, normalized Tr(iota rho) = 1.
        cycle_unitary: unitary u with u^z = Id commuting with rho and iota;
            the right eigenvector at lambda*theta^m is rho u^m. Each map's
            u is fixed only up to a z-th root of unity (it follows the
            phase of the computed eigenvector), so the labels m of two
            maps' cycle projectors need not match.
        cycle_projectors: eigenprojectors p_m of u at exp(2*pi*i*m/z).
        eigenvalues: the z peripheral eigenvalues, ordered by m.
        spectral_projectors: superoperator matrices of the rank-one spectral
            projectors X -> Tr(iota u^{-m} X) rho u^m, ordered by m.
        peripheral_projector: their sum, the projector onto the peripheral
            spectral subspace.
    """

    spectral_radius: float
    period: int
    rho: np.ndarray
    iota: np.ndarray
    cycle_unitary: np.ndarray
    cycle_projectors: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray
    spectral_projectors: tuple[np.ndarray, ...]
    peripheral_projector: np.ndarray


@dataclass(frozen=True)
class PeripheralDecompositions:
    """The fields of ``PeripheralDecomposition`` for a stack of N maps, each
    with a leading node axis: the projectors are (N, z, d^2, d^2), the cycle
    projectors (N, z, d, d); ``decs[i]`` is map i's decomposition. In a stack
    of mixed periods z is the largest, with zero rows past a map's own."""

    spectral_radius: np.ndarray
    period: np.ndarray
    rho: np.ndarray
    iota: np.ndarray
    cycle_unitary: np.ndarray
    cycle_projectors: np.ndarray
    eigenvalues: np.ndarray
    spectral_projectors: np.ndarray

    def __len__(self) -> int:
        return len(self.period)

    def __getitem__(self, i: int) -> PeripheralDecomposition:
        z = int(self.period[i])
        P = self.spectral_projectors[i, :z]
        return PeripheralDecomposition(
            spectral_radius=float(self.spectral_radius[i]),
            period=z,
            rho=self.rho[i],
            iota=self.iota[i],
            cycle_unitary=self.cycle_unitary[i],
            cycle_projectors=tuple(self.cycle_projectors[i, :z]),
            eigenvalues=self.eigenvalues[i, :z],
            spectral_projectors=tuple(P),
            # for z = 1 the sum is P_0 itself: no second copy
            peripheral_projector=P[0] if z == 1 else P.sum(axis=0),
        )


def _fail(i: int, message: str) -> SpectralError:
    return SpectralError(f"matrix {i} of the stack: {message}")


def _require(ok: np.ndarray, message: str, index=None) -> None:
    """Raise SpectralError naming the first matrix of a stack where ``ok`` fails.

    ``index`` maps the positions of ``ok`` to stack indices (default: equal).
    """
    bad = np.flatnonzero(~np.asarray(ok))
    if bad.size:
        raise _fail(bad[0] if index is None else index[bad[0]], message)


def _eigenvectors(M: np.ndarray, w: np.ndarray, Vr: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column k[i] of the eigenvectors Vr of each matrix M[i], at eigenvalue w[i, k[i]].

    ``eig`` can leave a column's residual |M v - w v| far above round-off
    (1.2e-9 on a cyclic map with one entry of 3.8e-23). Where it
    exceeds EIG_RESIDUAL_TOL at the matrix's scale, the bordered solve
    [[M - w, v], [v^*, 0]] [x; mu] = [0; 1] replaces v by x; elsewhere the
    column is ``eig``'s, bit for bit.
    """
    rows = np.arange(len(M))
    v, wk = Vr[rows, :, k], w[rows, k]
    res = np.abs((M @ v[..., None])[..., 0] - wk[:, None] * v).max(axis=1)
    bad = np.flatnonzero(res > EIG_RESIDUAL_TOL * _matrix_max(np.abs(M)))
    if bad.size:
        vb, n1 = v[bad][..., None], M.shape[-1]
        shifted = M[bad] - wk[bad, None, None] * np.eye(n1)
        B = np.block([[shifted, vb], [_adjoint(vb), np.zeros_like(vb[:, :1])]])
        v = v.copy()
        v[bad] = np.linalg.solve(B, np.eye(n1 + 1)[:, -1:])[:, :n1, 0]
    return v


def _phase_fixed_psd(X: np.ndarray) -> np.ndarray:
    """Rotate each near-PSD eigenvector of a stack (N, d, d) to Hermitian PSD."""
    tr = np.trace(X, axis1=-2, axis2=-1)
    scale = np.maximum(np.abs(X).max(axis=(-2, -1)), 1e-300)
    _require(
        np.abs(tr) >= 1e-12 * scale,
        "eigenvector has (near-)zero trace, cannot phase-fix",
    )
    X = X * (tr.conjugate() / np.abs(tr))[:, None, None]
    X = 0.5 * (X + _adjoint(X))
    w, V = hermitian_eig(X)
    _require(
        w.min(axis=-1) >= -1e-9 * np.maximum(np.abs(w).max(axis=-1), 1.0),
        "eigenvector not PSD",
    )
    return (V * np.clip(w, 0.0, None)[:, None, :]) @ _adjoint(V)


def invariant_state(L: SuperOperator) -> np.ndarray:
    """The invariant density matrix of a trace-preserving positive map."""
    w, Vr, _ = general_eig(L.matrix)
    k = int(np.argmin(np.abs(w - 1.0)))
    if abs(w[k] - 1.0) > 1e-8:
        raise SpectralError(f"no eigenvalue near 1 (closest: {w[k]})")
    rho = _phase_fixed_psd(unvec(Vr[:, k], L.dim)[None])[0]
    return rho / np.trace(rho).real


def _with_period(M, lam, rho, iota, Xr, z: int, nodes: np.ndarray) -> tuple:
    """Cycle data, spectral projectors and their checks for the stack
    matrices ``nodes``, all of period z: the stacks (u, p_m, eigenvalues, P)."""
    d = rho.shape[-1]
    M, lam, rho, iota = M[nodes], lam[nodes], rho[nodes], iota[nodes]
    Id = np.eye(d, dtype=complex)
    if z == 1:
        # one read-only identity is every node's u and its one eigenprojector
        units = np.broadcast_to(Id, (nodes.size, d, d))
        cycles = np.broadcast_to(Id, (nodes.size, 1, d, d))
        powers = []
    else:
        _require(
            np.linalg.eigvalsh(rho)[:, 0] >= FAITHFUL_TOL,
            "invariant state not faithful; map not irreducible",
            nodes,
        )
        # the right eigenvector at lambda*theta is rho u; fix u's scale and
        # phase so that ||u||^2 = d and Tr(u^z) = d
        u = herm_power(rho, -1.0) @ Xr[nodes]
        u *= (np.sqrt(d) / np.linalg.norm(u, axis=(1, 2)))[:, None, None]
        c = np.trace(np.linalg.matrix_power(u, z), axis1=1, axis2=2) / d
        u /= (c ** (1.0 / z))[:, None, None]
        # p_m, the eigenprojector of u at theta^m, is the discrete Fourier
        # transform (1/z) sum_k theta^(-mk) u^k of u's powers, Hermitised
        k = np.arange(z)
        powers = np.stack([np.linalg.matrix_power(u, j) for j in k], 1)
        dft = np.exp(-2j * np.pi * np.outer(k, k) / z)
        cycles = np.einsum("mk,nkab->nmab", dft, powers)
        cycles = (cycles + _adjoint(cycles)) / (2 * z)
        _require(
            _matrix_max(np.abs(cycles @ cycles - cycles)).max(axis=1) <= 1e-6,
            "cycle projector not idempotent: u's eigenvalues not roots of unity",
            nodes,
        )
        # The sums' eigenvalues miss 0 and 1 by the error of u's eigenvalues,
        # which is the error of the map's eigenvector at lambda theta; one
        # McWeeny step p -> p^2 (3 - 2p) takes them to 0 and 1 at second order
        cycles = cycles @ cycles @ (3 * Id - 2 * cycles)
        units = np.einsum("m,nmab->nab", np.exp(2j * np.pi * k / z), cycles)
        _require(
            _matrix_max(np.abs(units @ _adjoint(units) - Id)) <= 1e-8,
            "cycle operator could not be made unitary",
            nodes,
        )
        for A, name in ((rho, "rho"), (iota, "iota")):
            _require(
                _matrix_max(np.abs(units @ A - A @ units))
                <= 1e-7 * np.maximum(_matrix_max(np.abs(A)), 1.0),
                f"cycle operator does not commute with {name}",
                nodes,
            )
        powers = [np.linalg.matrix_power(units, m) for m in range(1, z)]
    eigenvalues = lam[:, None] * np.exp(2j * np.pi / z) ** np.arange(z)
    right = np.stack([rho] + [rho @ U for U in powers], 1)
    left = np.stack([iota] + [iota @ _adjoint(U) for U in powers], 1)
    # (nodes, z, d^2, d^2): P_m = |rho u^m)(iota u^{-m}|
    P = vec(right)[..., :, None] * vec(np.swapaxes(left, -1, -2))[..., None, :]
    # verify rank-one idempotency, the eigen-residual of the map and the
    # mutual orthogonality, each node at its own scale
    PP = P[:, :, None] @ P[:, None, :]
    diag = np.eye(z, dtype=bool)
    _require(
        _matrix_max(np.abs(PP[:, diag] - P)).max(axis=1) <= RESIDUAL_TOL,
        "spectral projector not idempotent",
        nodes,
    )
    res = _matrix_max(np.abs(M[:, None] @ P - eigenvalues[..., None, None] * P))
    _require(
        res.max(axis=1) <= RESIDUAL_TOL * np.maximum(lam, 1.0),
        "peripheral residual above tolerance",
        nodes,
    )
    if z > 1:
        _require(
            _matrix_max(np.abs(PP[:, ~diag])).max(axis=1) <= RESIDUAL_TOL,
            "spectral projectors not mutually orthogonal",
            nodes,
        )
    return units, cycles, eigenvalues, P


def peripheral_decompositions(matrices) -> PeripheralDecompositions:
    """Peripheral decompositions of a stack (N, d^2, d^2) of CP map matrices.

    One decomposition per matrix, each with its own period z, returned as
    node stacks; indexing the result gives one matrix's decomposition. The
    work is done in stacked passes: one ``eig`` of the stack for the right
    eigenvectors (a bordered ``solve`` mends a column read with a residual
    above round-off), one bordered ``solve`` for the left eigenvectors, one
    stacked ``hermitian_eig`` each to phase-fix rho and iota, one stacked
    pass per period z > 1 for the cycle unitaries, and stacked checks at
    each matrix's own scale.

    Raises SpectralError, naming the index of the first failing matrix,
    when the peripheral eigenvalues do not form a simple cyclic group
    lambda * {z-th roots of unity}, or when any certified identity
    (residuals, projector algebra, normalizations) fails its tolerance.
    """
    M = as_complex(matrices)
    d = math.isqrt(M.shape[-1]) if M.ndim == 3 else 0
    if M.ndim != 3 or M.shape[1:] != (d * d, d * d):
        raise SpectralError(f"expected a stack (N, d^2, d^2), got {M.shape}")
    n, d2 = len(M), d * d
    rows = np.arange(n)
    w, Vr = np.linalg.eig(M)
    lam = np.abs(w).max(axis=1)
    _require(lam > 0, "zero spectral radius")
    peripheral = np.abs(w) >= lam[:, None] * (1.0 - PERIPHERAL_REL_TOL)
    z = peripheral.sum(axis=1)
    # the peripheral phases must be exactly the z-th roots of unity
    ms = np.round(np.angle(w) * z[:, None] / (2 * np.pi)).astype(int) % z[:, None]
    ms = np.where(peripheral, ms, d2)
    ranks = np.arange(d2)
    _require(
        (np.sort(ms, axis=1) == np.where(ranks < z[:, None], ranks, d2)).all(1),
        "peripheral eigenvalues do not form a cyclic group",
    )
    roots = lam[:, None] * np.exp(2j * np.pi / z)[:, None] ** ms
    off = np.where(peripheral, np.abs(w - roots), 0.0).max(axis=1)
    _require(
        off <= PERIPHERAL_REL_TOL * lam * 10,
        "peripheral eigenvalue off its root of unity",
    )

    k0 = np.argmax(ms == 0, axis=1)
    rho = _phase_fixed_psd(unvec(_eigenvectors(M, w, Vr, k0), d))
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    # iota solves [[M* - conj(lambda), vec rho], [vec rho*, 0]] [vec iota; mu] = [0; 1],
    # non-singular as lambda is simple (a double root fails the cyclic group above),
    # with Tr(iota rho) = 1 its last row; the residual certifies it
    r, shift = vec(rho)[..., None], w[rows, k0, None, None].conj() * np.eye(d2)
    B = np.block([[_adjoint(M) - shift, r], [_adjoint(r), np.zeros_like(r[:, :1])]])
    e = np.eye(d2 + 1)[:, -1:]
    x = np.linalg.solve(B, e)
    ok = _matrix_max(np.abs(e - B @ x)) <= RESIDUAL_TOL * np.maximum(lam, 1.0)
    _require(ok, "left eigenvector residual above tolerance")
    iota = _phase_fixed_psd(unvec(x[:, :d2, 0], d))
    # right eigenvectors at lambda*theta, read only where z > 1
    Xr = unvec(_eigenvectors(M, w, Vr, np.argmax(ms == 1, axis=1)), d)

    periods = distinct_sorted(z)
    # rows past a matrix's own period stay zero
    zmax = int(periods[-1])
    cycle = (
        np.zeros((n, d, d), dtype=complex),
        np.zeros((n, zmax, d, d), dtype=complex),
        np.zeros((n, zmax), dtype=complex),
        np.zeros((n, zmax, d2, d2), dtype=complex),
    )
    for period in periods:
        nodes = np.flatnonzero(z == period)
        part = _with_period(M, lam, rho, iota, Xr, int(period), nodes)
        # u's second axis is d, filled whole; the others' is the period
        for whole, rows_of_part in zip(cycle, part):
            whole[nodes, : rows_of_part.shape[1]] = rows_of_part
    return PeripheralDecompositions(lam, z, rho, iota, *cycle)


def peripheral_decomposition(L: SuperOperator) -> PeripheralDecomposition:
    """Full peripheral decomposition of an irreducible CP map.

    The one-map view of ``peripheral_decompositions``.
    """
    return peripheral_decompositions(L.matrix[None])[0]


def primitivity_check(L: SuperOperator) -> bool:
    """True when the map is irreducible with trivial peripheral cycle (z=1)."""
    if L.kraus is None:
        raise SpectralError("primitivity_check requires a Kraus representation")
    irreducible = is_irreducible(L.kraus)
    dec = peripheral_decomposition(L) if irreducible else None
    if L.trace_preserving:
        _spectral_cross_check(L, irreducible)
    return bool(irreducible and dec.period == 1)


def _spectral_cross_check(L: SuperOperator, irreducible: bool) -> None:
    """Irreducible TP maps have a simple top eigenvalue with faithful state.

    Disagreement between this spectral characterization and the algebraic
    verdict is treated as an error.
    """
    w = np.linalg.eigvals(L.matrix)
    lam = np.abs(w).max()
    n_top = int((np.abs(w - lam) <= 1e-8 * max(lam, 1.0)).sum())
    simple = n_top == 1
    faithful = False
    if simple:
        try:
            rho = invariant_state(L)
            faithful = np.linalg.eigvalsh(rho).min() > FAITHFUL_TOL
        except (SpectralError, LinalgError):
            faithful = False
    if (simple and faithful) != irreducible:
        raise SpectralError(
            "spectral cross-check disagrees with algebraic irreducibility "
            f"(simple={simple}, faithful={faithful}, algebraic={irreducible})"
        )


def conditioned_map(
    kraus, weights, alpha: float, *, dec: PeripheralDecomposition | None = None
) -> SuperOperator:
    """Trace-preserving conditioning of a weighted (deformed) Kraus family.

    Given Kraus operators V_n with positive weights v_n, the deformed map
    sum_n v_n^alpha V_n X V_n* has spectral radius lambda and adjoint
    eigenvector iota; the conditioned family
    hat(V)_n = (v_n^alpha / lambda)^{1/2} iota^{1/2} V_n iota^{-1/2}
    defines a trace-preserving CP map, which is returned.
    """
    kraus = [as_complex(K) for K in kraus]
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise SpectralError("conditioning requires strictly positive weights")
    if dec is None:
        deformed = SuperOperator.from_kraus(
            [w ** (alpha / 2.0) * K for w, K in zip(weights, kraus)],
            trace_preserving=False,
        )
        dec = peripheral_decomposition(deformed)
    lam = dec.spectral_radius
    iota = assert_hermitian(dec.iota, tol=1e-9)
    s = herm_power(iota, 0.5)
    s_inv = herm_power(iota, -0.5)
    cond = [
        np.sqrt(w**alpha / lam) * (s @ K @ s_inv) for w, K in zip(weights, kraus)
    ]
    return SuperOperator.from_kraus(cond, trace_preserving=True)


def growth_rates(kraus, dy) -> tuple[np.ndarray, np.ndarray]:
    """(nu_minus, nu_plus): min/max weight exponent over nonvanishing Kraus,
    for each node of a stack (..., n, d, d) with dy (..., n)."""
    norms = np.abs(np.asarray(kraus)).max(axis=(-2, -1))
    active = norms > 1e-12 * np.maximum(norms.max(axis=-1, keepdims=True), 1.0)
    _require(active.any(axis=-1), "all Kraus operators vanish")
    return np.where(active, dy, np.inf).min(-1), np.where(active, dy, -np.inf).max(-1)
