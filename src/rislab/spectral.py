"""Peripheral spectral analysis of completely positive maps.

Provides irreducibility tests for Kraus families, the peripheral
decomposition (spectral radius, cyclic period z, unitary cycle operator u,
invariant/adjoint-invariant operators, spectral projectors and their sum),
and the associated conditioned (trace-preserving) map.

``peripheral_decompositions`` decomposes a whole stack of map matrices in
stacked passes: one ``eig`` for the right eigenvectors, one of the adjoint
stack for the left ones, one stacked ``hermitian_eig`` each for rho and
iota, and every certificate checked at each matrix's own scale. A node set
thus costs a few LAPACK calls, not a few per node. Only the cycle unitary
of a period z > 1 is built one map at a time. The result holds node stacks;
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
    general_eig,
    herm_power,
    hermitian_eig,
    unvec,
    vec,
)

PERIPHERAL_REL_TOL = 1e-8
RESIDUAL_TOL = 1e-8
FAITHFUL_TOL = 1e-10


class SpectralError(ValueError):
    """Raised when the peripheral structure cannot be certified."""


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


def _span_rank(vectors: list[np.ndarray]) -> int:
    if not vectors:
        return 0
    return int(np.linalg.matrix_rank(np.stack(vectors), tol=1e-10))


def _orbit_span(seed: np.ndarray, kraus) -> np.ndarray:
    """Smallest Kraus-invariant subspace containing ``seed`` (as basis matrix)."""
    d = seed.size
    basis = seed.reshape(1, d) / np.linalg.norm(seed)
    while True:
        candidates = [basis[k] for k in range(basis.shape[0])]
        for K in kraus:
            candidates.extend(K @ b for b in basis)
        M = np.stack(candidates)
        _, svals, Vh = np.linalg.svd(M, full_matrices=False)
        rank = int((svals > 1e-10 * svals[0]).sum())
        if rank == basis.shape[0]:
            return Vh[:rank].T  # d x rank, orthonormal columns
        basis = Vh[:rank]


def _algebra_dimension(kraus, d: int) -> int:
    """Dimension of the unital algebra generated by the Kraus operators."""
    gens = [np.eye(d, dtype=complex)] + [as_complex(K) for K in kraus]
    basis: list[np.ndarray] = []
    rank = 0
    for g in gens:
        cand = basis + [vec(g)]
        r = _span_rank(cand)
        if r > rank:
            basis, rank = cand, r
    elements = [unvec(b, d) for b in basis]
    while True:
        grew = False
        for g in gens:
            for e in list(elements):
                for prod in (g @ e, e @ g):
                    cand = basis + [vec(prod)]
                    r = _span_rank(cand)
                    if r > rank:
                        basis, rank = cand, r
                        elements.append(prod)
                        grew = True
                        if rank == d * d:
                            return rank
        if not grew:
            return rank


def is_irreducible(kraus, *, return_witness: bool = False):
    """Decide whether the Kraus family has a common proper invariant subspace.

    Returns ``bool`` (or ``(bool, witness)`` with ``return_witness=True``,
    where the witness is an orthonormal basis of a proper invariant subspace,
    or ``None``). The verdict is the generated-algebra dimension test
    (irreducible over C iff the unital algebra generated by the family is the
    full matrix algebra); a subspace witness is searched when reducible.
    """
    kraus = [as_complex(K) for K in kraus]
    d = kraus[0].shape[0]
    irreducible = _algebra_dimension(kraus, d) == d * d
    witness = None
    if not irreducible:
        seeds = []
        for K in kraus:
            _, V = np.linalg.eig(K)
            seeds.extend(V.T)
        rng = np.random.default_rng(0)
        for _ in range(4):
            coeffs = rng.standard_normal(len(kraus)) + 1j * rng.standard_normal(
                len(kraus)
            )
            A = sum(c * K for c, K in zip(coeffs, kraus))
            _, V = np.linalg.eig(A)
            seeds.extend(V.T)
        for seed in seeds:
            span = _orbit_span(seed, kraus)
            if 0 < span.shape[1] < d:
                witness = span
                break
        if witness is None:
            raise SpectralError(
                "algebra test says reducible but no invariant subspace found"
            )
    return (irreducible, witness) if return_witness else irreducible


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
            the right eigenvector at lambda*theta^m is rho u^m.
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


def _cycle_unitary(i: int, rho, iota, X: np.ndarray, z: int):
    """The cycle unitary u and its eigenprojectors p_m of stack matrix i.

    X is the right eigenvector at lambda*theta, which equals rho u.
    """
    d = rho.shape[0]
    if np.linalg.eigvalsh(rho).min() < FAITHFUL_TOL:
        raise _fail(i, "invariant state not faithful; map not irreducible")
    u = herm_power(rho, -1.0) @ X
    u *= np.sqrt(d) / np.linalg.norm(u)
    # fix the overall phase so that u^z = Id, then snap the eigenvalues
    # of u to exact z-th roots of unity
    uz = np.linalg.matrix_power(u, z)
    c = np.trace(uz) / d
    u = u / c ** (1.0 / z)
    wu, Vu = np.linalg.eig(u)
    mu = np.round(np.angle(wu) * z / (2 * np.pi)).astype(int) % z
    if np.abs(wu - np.exp(2j * np.pi * mu / z)).max() > 1e-6:
        raise _fail(i, "cycle operator eigenvalues not near roots of unity")
    # u is normal here (commutes with the faithful rho up to numerics);
    # orthonormalize the eigenbasis per eigenvalue cluster
    cols = []
    for m in range(z):
        sel = Vu[:, mu == m]
        if sel.shape[1]:
            cols.append(np.linalg.qr(sel, mode="reduced")[0])
    Vu = np.concatenate(cols, axis=1)
    mu = np.concatenate([[m] * (mu == m).sum() for m in range(z)])
    u = (Vu * np.exp(2j * np.pi * mu / z)) @ Vu.conj().T
    if np.abs(u @ u.conj().T - np.eye(d)).max() > 1e-8:
        raise _fail(i, "cycle operator could not be made unitary")
    for A, name in ((rho, "rho"), (iota, "iota")):
        if np.abs(u @ A - A @ u).max() > 1e-7 * max(np.abs(A).max(), 1.0):
            raise _fail(i, f"cycle operator does not commute with {name}")
    return u, tuple(Vu[:, mu == m] @ Vu[:, mu == m].conj().T for m in range(z))


def _with_period(M, lam, rho, iota, Xr, z: int, nodes: np.ndarray) -> tuple:
    """Cycle data, spectral projectors and their checks for the stack
    matrices ``nodes``, all of period z: the stacks (u, p_m, eigenvalues, P)."""
    d = rho.shape[-1]
    if z == 1:
        # one read-only identity is every node's u and its one eigenprojector
        Id = np.eye(d, dtype=complex)
        units = np.broadcast_to(Id, (nodes.size, d, d))
        cycles = np.broadcast_to(Id, (nodes.size, 1, d, d))
        powers = []
    else:
        pairs = [_cycle_unitary(i, rho[i], iota[i], Xr[i], z) for i in nodes]
        units = np.stack([p[0] for p in pairs])
        cycles = np.stack([np.stack(p[1]) for p in pairs])
        powers = [np.linalg.matrix_power(units, m) for m in range(1, z)]
    M, lam, rho, iota = M[nodes], lam[nodes], rho[nodes], iota[nodes]
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
    eigenvectors, one of the adjoint stack for the left eigenvectors, one
    stacked ``hermitian_eig`` each to phase-fix rho and iota, and stacked
    checks at each matrix's own scale. Only the cycle unitary of a z > 1
    matrix is built one matrix at a time.

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
    wl, Vl = np.linalg.eig(_adjoint(M))
    # the left eigenvector at lambda: the adjoint's eigenvector at conj(lambda)
    j0 = np.argmin(np.abs(wl - w[rows, k0].conj()[:, None]), axis=1)
    rho = _phase_fixed_psd(unvec(Vr[rows, :, k0], d))
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    iota = _phase_fixed_psd(unvec(Vl[rows, :, j0], d))
    iota = iota / np.trace(iota @ rho, axis1=1, axis2=2).real[:, None, None]
    # right eigenvectors at lambda*theta, read only where z > 1
    Xr = unvec(Vr[rows, :, np.argmax(ms == 1, axis=1)], d)

    periods = np.unique(z)
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


def growth_rates(kraus, dy) -> tuple[float, float]:
    """(nu_minus, nu_plus): min/max weight exponent over nonvanishing Kraus."""
    norms = np.array([np.abs(K).max() for K in kraus])
    scale = max(norms.max(), 1.0)
    active = np.asarray(dy, dtype=float)[norms > 1e-12 * scale]
    if active.size == 0:
        raise SpectralError("all Kraus operators vanish")
    return float(active.min()), float(active.max())
