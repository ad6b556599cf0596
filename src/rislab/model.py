"""Repeated interaction system (RIS) models.

A model couples a fixed finite-dimensional system to a chain of fresh
thermal probes. During step k of a length-T protocol the pair evolves for
a time tau under exp(-i*tau*(h_sys + h_env(s) + v(s))) at s = k/T, with
the probe prepared in the Gibbs state of h_env(s) at inverse temperature
beta(s). Tracing out the probe yields the reduced map L(s); two-point
counting with respect to a probe observable Y yields the deformed maps
L^(alpha)(s) through an exponentially weighted Kraus family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    LinalgError,
    SuperOperator,
    assert_hermitian,
    herm_exp,
    herm_power,
    hermitian_eig,
    kron_stack,
    outcome_groups,
    spectral_radius,
    tensor_product,
)
from .spectral import invariant_state

# ---------------------------------------------------------------------------
# schedules on [0, 1]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSchedule:
    value: float

    def __call__(self, s):
        return self.value + 0.0 * np.asarray(s, dtype=float)


@dataclass(frozen=True)
class TanhPolySchedule:
    """sum_k c_k * tanh(r_k * s) + sum_j p_j * s**j (poly in ascending order)."""

    tanh_terms: tuple[tuple[float, float], ...] = ()
    poly: tuple[float, ...] = ()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for c, r in self.tanh_terms:
            out = out + c * np.tanh(r * s)
        for j, p in enumerate(self.poly):
            out = out + p * s**j
        return out


@dataclass(frozen=True)
class TabulatedSchedule:
    """Natural cubic spline through (nodes, values)."""

    nodes: tuple[float, ...]
    values: tuple[float, ...]
    _spline: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(self.nodes, self.values, bc_type="natural")
        object.__setattr__(self, "_spline", spline)

    def __call__(self, s):
        return self._spline(np.asarray(s, dtype=float))


Schedule = ConstantSchedule | TanhPolySchedule | TabulatedSchedule


def beta_schedule_1() -> TanhPolySchedule:
    """Smooth increasing schedule 2*(3 + 4*tanh(2s)) / (3 + 2*log(cosh 2))."""
    denom = 3.0 + 2.0 * np.log(np.cosh(2.0))
    return TanhPolySchedule(
        tanh_terms=((8.0 / denom, 2.0),), poly=(6.0 / denom,)
    )


def beta_schedule_2() -> TanhPolySchedule:
    """Non-monotone schedule with the same endpoints and mean as schedule 1."""
    return TanhPolySchedule(
        tanh_terms=((35.483, 2.0), (-141.929, 0.5)),
        poly=(1.061, -17.808, 93.5, -42.945),
    )


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RISModel:
    """A repeated interaction model with protocol parameter s in [0, 1].

    ``h_env`` and ``coupling`` are functions of s returning Hermitian
    matrices (dim_env x dim_env and the full dim_sys*dim_env square,
    respectively); ``beta`` is the inverse-temperature schedule.
    ``counting`` returns the Hermitian probe observable Y(s) that the
    two-time protocol measures; None means beta(s) * h_env(s).
    """

    dim_sys: int
    dim_env: int
    h_sys: np.ndarray
    h_env: Callable[[float], np.ndarray]
    coupling: Callable[[float], np.ndarray]
    beta: Callable[[float], float]
    tau: float
    counting: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "h_sys", assert_hermitian(self.h_sys))
        if self.h_sys.shape != (self.dim_sys, self.dim_sys):
            raise LinalgError("h_sys has wrong shape")


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta*h) / Tr exp(-beta*h); h and beta may carry a node axis."""
    g = herm_exp(h, -np.asarray(beta, dtype=float))
    return g / np.trace(g, axis1=-2, axis2=-1).real[..., None, None]


def _at_nodes(f: Callable, s) -> np.ndarray:
    """f(s), or f at each node of a 1-d array s stacked along a leading axis."""
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        return np.asarray(f(float(s)))
    return np.stack([np.asarray(f(float(x))) for x in s])


def probe_state(model: RISModel, s: float) -> np.ndarray:
    return gibbs_state(model.h_env(s), model.beta(s))


# total_hamiltonian and joint_unitary take one node or a 1-d array of nodes;
# for an array they return the stack of the per-node results, each bitwise
# equal to the result for that node alone.


def total_hamiltonian(model: RISModel, s) -> np.ndarray:
    dS, dE = model.dim_sys, model.dim_env
    hE = assert_hermitian(_at_nodes(model.h_env, s))
    V = assert_hermitian(_at_nodes(model.coupling, s))
    return (
        tensor_product(model.h_sys, np.eye(dE))
        + tensor_product(np.eye(dS), hE)
        + V
    )


def joint_unitary(model: RISModel, s) -> np.ndarray:
    """exp(-i*tau*(h_sys + h_env(s) + v(s))) on the system-probe pair."""
    return herm_exp(total_hamiltonian(model, s), -1j * model.tau)


# ---------------------------------------------------------------------------
# Kraus families and (deformed) reduced maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrausFamily:
    """The kernel of one protocol node: every map of the node is a sum over it.

    psi (``basis``) diagonalises the counting observable Y with eigenvalues
    ``y_eigenvalues`` ascending; ``groups`` (n_outcomes, dim_env) marks with
    1 the eigenvectors of each distinct outcome of Y. ``transitions[b, a]``
    is the system block (Id x <psi_b|) U (Id x |psi_a>) of the joint unitary
    and ``xi_y = psi* xi psi`` the probe state. ``kraus[n]`` is
    K_ab = sum_c (xi_y^{1/2})_{ca} transitions[b, c] for the probe transition
    a -> b (n = a*dim_env + b), ``kron[n]`` is conj(K_n) kron K_n and
    ``dy[n] = y_b - y_a``.
    """

    kraus: tuple[np.ndarray, ...]
    dy: np.ndarray
    y_eigenvalues: np.ndarray
    basis: np.ndarray
    transitions: np.ndarray
    xi_y: np.ndarray
    groups: np.ndarray
    kron: np.ndarray

    def deformed_matrix(self, alpha: complex) -> np.ndarray:
        """The matrix sum_n e^{alpha*dy_n} conj(K_n) kron K_n of L^(alpha)(s)."""
        return np.einsum("n,nab->ab", np.exp(complex(alpha) * self.dy), self.kron)


def counting_observable(model: RISModel, s, beta, h_env) -> np.ndarray:
    """Y(s), the probe observable counted at one node or at a 1-d array of nodes.

    ``beta`` and ``h_env`` are the schedule and the probe Hamiltonian already
    read at those nodes. Y is ``model.counting`` when it is set, and the
    entropic beta(s) * h_env(s) when it is None.
    """
    if model.counting is not None:
        return _at_nodes(model.counting, s)
    return np.asarray(beta, dtype=float)[..., None, None] * h_env


def kraus_families(model: RISModel, s_values) -> list[KrausFamily]:
    """The kernels of a set of protocol nodes, built in one pass.

    Kraus operators K_ij = (Id x <psi_j|) U (Id x xi^{1/2} |psi_i>), with
    psi the eigenbasis of the model's counting observable Y and xi the probe
    Gibbs state; the reduced map is X -> sum_ij K_ij X K_ij*. Y, h_env, xi
    and the total Hamiltonian are each decomposed in one stacked eigh, and
    every kernel is bitwise equal to the one built for its node alone.
    """
    dS, dE = model.dim_sys, model.dim_env
    s_values = np.asarray(s_values, dtype=float).reshape(-1)
    n = s_values.size
    if n == 0:
        return []
    # Y and the probe state of every node, from one reading of beta(s) and
    # h_env(s) per node
    beta = _at_nodes(model.beta, s_values).astype(float)
    h_env = assert_hermitian(_at_nodes(model.h_env, s_values))
    y, psi = hermitian_eig(counting_observable(model, s_values, beta, h_env))
    xi = gibbs_state(h_env, beta)
    psi_h = np.swapaxes(psi.conj(), -1, -2)
    xi_y = psi_h @ xi @ psi
    xi_y_half = psi_h @ herm_power(xi, 0.5) @ psi
    U4 = joint_unitary(model, s_values).reshape(n, dS, dE, dS, dE)
    # per node, the very calls of a one-node build, so they round alike on any numpy
    A = [np.einsum("eb,menf,fa->bamn", p.conj(), u, p) for p, u in zip(psi, U4)]
    K = np.stack([np.einsum("ca,bcmn->abmn", h, a) for h, a in zip(xi_y_half, A)])
    K = K.reshape(n, dE * dE, dS, dS)
    kron = kron_stack(K.reshape(-1, dS, dS)).reshape(n, dE * dE, dS**2, dS**2)
    dy = (y[:, None, :] - y[:, :, None]).reshape(n, -1)
    return [
        KrausFamily(
            kraus=tuple(K[i]),
            dy=dy[i],
            y_eigenvalues=y[i],
            basis=psi[i],
            transitions=A[i],
            xi_y=xi_y[i],
            groups=outcome_groups(y[i]).astype(float),
            kron=kron[i],
        )
        for i in range(n)
    ]


def kraus_family(model: RISModel, s: float) -> KrausFamily:
    """The kernel of one protocol node: the one-node view of kraus_families."""
    return kraus_families(model, [s])[0]


def reduced_map(model: RISModel, s: float) -> SuperOperator:
    """The trace-preserving reduced map L(s) = L^(0)(s)."""
    return deformed_map(model, s, 0.0)


def deformed_map(
    model: RISModel,
    s: float,
    alpha: complex,
    fam: KrausFamily | None = None,
) -> SuperOperator:
    """The deformed map L^(alpha)(s): X -> sum_n e^{alpha*dy_n} K_n X K_n*.

    At alpha = 0 this is the reduced map, returned with its Kraus family and
    certified trace preserving; at any other alpha only the matrix is kept.
    """
    if fam is None:
        fam = kraus_family(model, s)
    matrix = fam.deformed_matrix(alpha)
    if alpha != 0:
        return SuperOperator(dim=model.dim_sys, matrix=matrix)
    return SuperOperator(
        dim=model.dim_sys,
        matrix=matrix,
        kraus=fam.kraus,
        completely_positive=True,
        trace_preserving=True,
    )


# ---------------------------------------------------------------------------
# structural diagnostics
# ---------------------------------------------------------------------------


def stationary_obstruction(model: RISModel, s: float) -> np.ndarray:
    """X(s) = U (rho_inv x xi) U* - rho_inv x xi.

    Vanishes identically in s exactly when the dynamics admits an exactly
    stationary family of product states (the structural degenerate case).
    """
    rho_inv = invariant_state(reduced_map(model, s))
    U = joint_unitary(model, s)
    P = tensor_product(rho_inv, probe_state(model, s))
    return U @ P @ U.conj().T - P


def obstruction_norm(model: RISModel, s_grid) -> np.ndarray:
    """Max-entry norm of the stationary obstruction along a protocol grid."""
    return np.asarray(
        [np.abs(stationary_obstruction(model, s)).max() for s in np.atleast_1d(s_grid)]
    )


def commuting_effective_hamiltonian(
    model: RISModel, s: float, k_sys: np.ndarray
) -> float:
    """Defect max|[k_sys + h_env, U]|; zero certifies the degenerate case."""
    dS, dE = model.dim_sys, model.dim_env
    H = tensor_product(assert_hermitian(k_sys), np.eye(dE)) + tensor_product(
        np.eye(dS), assert_hermitian(model.h_env(s))
    )
    U = joint_unitary(model, s)
    return float(np.abs(H @ U - U @ H).max())


def tri_symmetry_defect(model: RISModel, s: float, alphas) -> float:
    """max over alpha of |spr L^(alpha) - spr L^(-1-alpha)|.

    Vanishes for time-reversal invariant models (all data real in a common
    basis).
    """
    fam = kraus_family(model, s)
    worst = 0.0
    for a in np.atleast_1d(alphas):
        la = spectral_radius(fam.deformed_matrix(float(a)))
        lb = spectral_radius(fam.deformed_matrix(-1.0 - float(a)))
        worst = max(worst, abs(la - lb))
    return worst


# ---------------------------------------------------------------------------
# worked-example presets
# ---------------------------------------------------------------------------

_LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
# level spacings of the system and the probes, and the coupling constant
_E_SYS, _E_ENV, _LAMBDA = 0.9, 0.8, 2.0


def _preset(beta: Schedule, coupling_matrix: np.ndarray, tau: float) -> RISModel:
    h_sys = _E_SYS * (_LOWERING.conj().T @ _LOWERING)
    h_env_mat = _E_ENV * (_LOWERING.conj().T @ _LOWERING)
    v = _LAMBDA * coupling_matrix
    return RISModel(
        dim_sys=2,
        dim_env=2,
        h_sys=h_sys,
        h_env=lambda s: h_env_mat,
        coupling=lambda s: v,
        beta=beta,
        tau=tau,
    )


def rwa_model(beta: Schedule | None = None, tau: float = 0.5) -> RISModel:
    """Two-level system and probes with rotating-wave (exchange) coupling.

    v = (1/2)(a* x b + a x b*), scaled by the coupling constant.
    """
    if beta is None:
        beta = beta_schedule_1()
    a = _LOWERING
    v = 0.5 * (
        tensor_product(a.conj().T, a) + tensor_product(a, a.conj().T)
    )
    return _preset(beta, v, tau)


def fd_model(beta: Schedule | None = None, tau: float = 0.5) -> RISModel:
    """Two-level system and probes with full dipole coupling.

    v = (1/2)(a + a*) x (b + b*), scaled by the coupling constant.
    """
    if beta is None:
        beta = beta_schedule_1()
    x = _LOWERING + _LOWERING.conj().T
    v = 0.5 * tensor_product(x, x)
    return _preset(beta, v, tau)


def rwa_k_sys(model: RISModel) -> np.ndarray:
    """The system observable making the exchange model exactly stationary.

    k_sys = (e_env / e_sys) * h_sys, valid for the rotating-wave preset
    with constant probe Hamiltonian.
    """
    hE = model.h_env(0.0)
    e_env = float(np.real(hE[1, 1] - hE[0, 0]))
    e_sys = float(np.real(model.h_sys[1, 1] - model.h_sys[0, 0]))
    return (e_env / e_sys) * model.h_sys
