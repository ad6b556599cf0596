"""Peripheral spectral analysis of completely positive maps.

Provides irreducibility tests for Kraus families, the peripheral
decomposition (spectral radius, cyclic period z, unitary cycle operator u,
invariant/adjoint-invariant operators, spectral projectors), and the
associated conditioned (trace-preserving) map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    LinalgError,
    SuperOperator,
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
    """

    spectral_radius: float
    period: int
    rho: np.ndarray
    iota: np.ndarray
    cycle_unitary: np.ndarray
    cycle_projectors: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray
    spectral_projectors: tuple[np.ndarray, ...]


def _phase_fixed_psd(X: np.ndarray) -> np.ndarray:
    """Rotate a near-PSD eigenvector to Hermitian PSD (trace real positive)."""
    tr = np.trace(X)
    if abs(tr) < 1e-12 * max(np.abs(X).max(), 1e-300):
        raise SpectralError("eigenvector has (near-)zero trace, cannot phase-fix")
    X = X * (tr.conjugate() / abs(tr))
    X = 0.5 * (X + X.conj().T)
    w, V = hermitian_eig(X)
    if w.min() < -1e-9 * max(abs(w).max(), 1.0):
        raise SpectralError(f"eigenvector not PSD: min eigenvalue {w.min():.3e}")
    return (V * np.clip(w, 0.0, None)) @ V.conj().T


def invariant_state(L: SuperOperator) -> np.ndarray:
    """The invariant density matrix of a trace-preserving positive map."""
    w, Vr, _ = general_eig(L.matrix)
    k = int(np.argmin(np.abs(w - 1.0)))
    if abs(w[k] - 1.0) > 1e-8:
        raise SpectralError(f"no eigenvalue near 1 (closest: {w[k]})")
    rho = _phase_fixed_psd(unvec(Vr[:, k], L.dim))
    return rho / np.trace(rho).real


def peripheral_decomposition(L: SuperOperator) -> PeripheralDecomposition:
    """Full peripheral decomposition of an irreducible CP map.

    Raises SpectralError when the peripheral eigenvalues do not form a
    simple cyclic group lambda * {z-th roots of unity}, or when any
    certified identity (residuals, projector algebra, normalizations)
    fails its tolerance.
    """
    d = L.dim
    w, Vr, Vl = general_eig(L.matrix)
    lam = float(np.abs(w).max())
    if lam <= 0:
        raise SpectralError("zero spectral radius")
    idx = [
        int(i) for i in range(w.size) if abs(w[i]) >= lam * (1.0 - PERIPHERAL_REL_TOL)
    ]
    z = len(idx)
    # the peripheral phases must be exactly the z-th roots of unity
    phases = np.angle(w[idx])
    ms = np.round(phases * z / (2 * np.pi)).astype(int) % z
    if sorted(ms) != list(range(z)):
        raise SpectralError(
            f"peripheral eigenvalues do not form a cyclic group: phases {phases}"
        )
    theta = np.exp(2j * np.pi / z)
    for i, m in zip(idx, ms):
        if abs(w[i] - lam * theta**m) > PERIPHERAL_REL_TOL * lam * 10:
            raise SpectralError("peripheral eigenvalue off its root of unity")

    k0 = idx[list(ms).index(0)]
    rho = _phase_fixed_psd(unvec(Vr[:, k0], d))
    rho = rho / np.trace(rho).real
    iota = _phase_fixed_psd(unvec(Vl[:, k0], d))
    iota = iota / np.trace(iota @ rho).real

    if z > 1:
        if np.linalg.eigvalsh(rho).min() < FAITHFUL_TOL:
            raise SpectralError("invariant state not faithful; map not irreducible")
        k1 = idx[list(ms).index(1)]
        X = unvec(Vr[:, k1], d)
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
            raise SpectralError("cycle operator eigenvalues not near roots of unity")
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
            raise SpectralError("cycle operator could not be made unitary")
        projectors = tuple(
            (Vu[:, mu == m] @ Vu[:, mu == m].conj().T) for m in range(z)
        )
        for A, name in ((rho, "rho"), (iota, "iota")):
            if np.abs(u @ A - A @ u).max() > 1e-7 * max(np.abs(A).max(), 1.0):
                raise SpectralError(f"cycle operator does not commute with {name}")
    else:
        u = np.eye(d, dtype=complex)
        projectors = (np.eye(d, dtype=complex),)

    eigenvalues = lam * theta ** np.arange(z)
    spectral_projectors = []
    for m in range(z):
        right = rho @ np.linalg.matrix_power(u, m)
        left = iota @ np.linalg.matrix_power(u.conj().T, m)
        P = np.outer(vec(right), vec(left.T))
        # verify rank-one idempotency and the eigen-residual of the map
        if np.abs(P @ P - P).max() > RESIDUAL_TOL:
            raise SpectralError(f"spectral projector m={m} not idempotent")
        res = np.abs(L.matrix @ P - eigenvalues[m] * P).max()
        if res > RESIDUAL_TOL * max(lam, 1.0):
            raise SpectralError(f"peripheral residual {res:.3e} at m={m}")
        spectral_projectors.append(P)
    for m in range(z):
        for n in range(z):
            prod = spectral_projectors[m] @ spectral_projectors[n]
            target = spectral_projectors[m] if m == n else 0.0
            if np.abs(prod - target).max() > RESIDUAL_TOL:
                raise SpectralError("spectral projectors not mutually orthogonal")

    return PeripheralDecomposition(
        spectral_radius=lam,
        period=z,
        rho=rho,
        iota=iota,
        cycle_unitary=u,
        cycle_projectors=projectors,
        eigenvalues=eigenvalues,
        spectral_projectors=tuple(spectral_projectors),
    )


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
