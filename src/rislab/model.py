"""Repeated interaction system (RIS) models.

A model couples a fixed finite-dimensional system to a chain of fresh
thermal probes. During step k of a length-T protocol the pair evolves for
a time tau under exp(-i*tau*(h_sys + h_env(s) + v(s))) at s = k/T, with
the probe prepared in the Gibbs state of h_env(s) at inverse temperature
beta(s). Tracing out the probe yields the reduced map L(s); two-point
counting of Y(s) = beta(s) * h_env(s) yields the deformed maps
L^(alpha)(s) through an exponentially weighted Kraus family.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .linalg import (
    EIGENVALUE_FLOOR,
    KRAUS_MATRIX_TOL,
    LinalgError,
    SuperOperator,
    assert_hermitian,
    herm_exp,
    hermitian_eig,
    kron_stack,
    spectral_radius,
    tensor_product,
)

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
    """Natural cubic spline through (nodes, values); its end pieces extrapolate.

    ``_m``: the second derivatives at the nodes (0 at both ends), from one
    solve. Cubes as products keep a scalar read bitwise equal to an array's."""

    nodes: tuple[float, ...]
    values: tuple[float, ...]
    _m: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, y = np.asarray(self.nodes, float), np.asarray(self.values, float)
        h, i = np.diff(x), np.arange(1, x.size - 1)
        A, rhs = np.eye(x.size), np.zeros(x.size)
        A[i, i - 1], A[i, i], A[i, i + 1] = h[:-1], 2.0 * (h[:-1] + h[1:]), h[1:]
        rhs[i] = 6.0 * np.diff(np.diff(y) / h)
        object.__setattr__(self, "_m", np.linalg.solve(A, rhs))

    def __call__(self, s):
        x, y, m = np.asarray(self.nodes, float), np.asarray(self.values, float), self._m
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, x.size - 2)
        h = x[i + 1] - x[i]
        u = (s - x[i]) / h
        v = 1.0 - u
        curve = (v * v - 1.0) * v * m[i] + (u * u - 1.0) * u * m[i + 1]
        return v * y[i] + u * y[i + 1] + h * h / 6.0 * curve


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
    respectively); ``beta`` is the inverse-temperature schedule. The
    two-time protocol counts Y(s) = beta(s) * h_env(s), so the probe state
    is xi(s) = e^{-Y(s)} / Z(s).
    """

    dim_sys: int
    dim_env: int
    h_sys: np.ndarray
    h_env: Callable[[float], np.ndarray]
    coupling: Callable[[float], np.ndarray]
    beta: Callable[[float], float]
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "h_sys", assert_hermitian(self.h_sys))
        if self.h_sys.shape != (self.dim_sys, self.dim_sys):
            raise LinalgError("h_sys has wrong shape")


def protocol_nodes(N: int) -> np.ndarray:
    """The N + 1 nodes k/N of [0, 1]; node k of N is node m*k of m*N, bitwise."""
    return np.arange(N + 1) / N


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta*h) / Tr exp(-beta*h); h and beta may carry a node axis."""
    g = herm_exp(h, -np.asarray(beta, dtype=float))
    return g / np.trace(g, axis1=-2, axis2=-1).real[..., None, None]


def _at_nodes(f: Callable, s) -> np.ndarray:
    """f(s), or f at each node of a 1-d array s stacked along a leading axis."""
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        return np.asarray(f(float(s)))
    if isinstance(f, Schedule):
        # the package's schedules read the whole array at once
        return np.asarray(f(s))
    return np.stack([np.asarray(f(float(x))) for x in s])


# total_hamiltonian and joint_unitary take one node or a 1-d array of nodes;
# for an array they return the stack of the per-node results, each bitwise
# equal to the result for that node alone. The keyword ``_h_env`` hands them
# h_env(s) already read and checked at those nodes, so a caller that needs
# the probe Hamiltonian too reads it once.


def total_hamiltonian(model: RISModel, s, *, _h_env=None) -> np.ndarray:
    dS, dE = model.dim_sys, model.dim_env
    hE = assert_hermitian(_at_nodes(model.h_env, s)) if _h_env is None else _h_env
    V = assert_hermitian(_at_nodes(model.coupling, s))
    return (
        tensor_product(model.h_sys, np.eye(dE))
        + tensor_product(np.eye(dS), hE)
        + V
    )


def joint_unitary(model: RISModel, s, *, _h_env=None) -> np.ndarray:
    """exp(-i*tau*(h_sys + h_env(s) + v(s))) on the system-probe pair.

    One exponential per run of consecutive nodes with equal Hamiltonians,
    gathered back to every node of the run: a model whose H moves with s
    has runs of one node, one whose only beta moves has a single run.
    """
    H = total_hamiltonian(model, s, _h_env=_h_env)
    stack = H.reshape(-1, *H.shape[-2:])
    head = np.ones(len(stack), dtype=bool)
    head[1:] = (stack[1:] != stack[:-1]).any(axis=(1, 2))
    U = herm_exp(stack[head], -1j * model.tau)[np.cumsum(head) - 1]
    return U.reshape(H.shape)


# ---------------------------------------------------------------------------
# Kraus families and (deformed) reduced maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrausFamily:
    """The kernel of a protocol node: every map of the node is a sum over it.

    psi diagonalises Y = beta * h_env, eigenvalues ``y_eigenvalues``
    ascending, and the probe state xi = e^{-Y} / Z. ``kraus[n]`` is
    K_ab = (Id x <psi_b|) U (Id x xi^{1/2} |psi_a>) for the probe transition
    a -> b (n = a*dim_env + b), ``kron[n]`` is conj(K_n) kron K_n and
    ``dy[n] = y_b - y_a = log(xi_a / xi_b)``.

    The kernel of a node set carries a leading node axis on every field, so
    ``deformed_matrix`` returns a stack; ``fams[i]`` is node i's kernel.
    """

    kraus: np.ndarray
    dy: np.ndarray
    y_eigenvalues: np.ndarray
    kron: np.ndarray

    def __getitem__(self, i: int) -> "KrausFamily":
        """Node i's kernel; iterating a node set's kernel yields its nodes."""
        if self.dy.ndim != 2:
            raise TypeError("the kernel of one node has no node axis")
        return KrausFamily(*(getattr(self, f.name)[i] for f in fields(self)))

    def deformed_matrix(self, alpha: complex) -> np.ndarray:
        """The matrix sum_n e^{alpha*dy_n} conj(K_n) kron K_n of L^(alpha)(s)."""
        return np.einsum(
            "...n,...nab->...ab", np.exp(alpha * self.dy), self.kron
        )


def kraus_families(model: RISModel, s_values) -> KrausFamily:
    """The kernel of a set of protocol nodes, built in one pass.

    Kraus operators K_ij = (Id x <psi_j|) U (Id x xi^{1/2} |psi_i>), with
    psi the eigenbasis of Y = beta * h_env and xi = e^{-Y} / Z; the reduced
    map is X -> sum_ij K_ij X K_ij*. Y and the total Hamiltonian are each
    decomposed in one stacked eigh, and every node's kernel is bitwise equal
    to the one built for it alone. A weight of xi below EIGENVALUE_FLOOR, or
    |sum_n K_n* K_n - Id| above KRAUS_MATRIX_TOL, raises LinalgError naming s.
    """
    dS, dE = model.dim_sys, model.dim_env
    s_values = np.asarray(s_values, dtype=float).reshape(-1)
    n = s_values.size
    if n == 0:
        raise ValueError("a kernel needs at least one protocol node")
    # Y and the joint unitary of every node, reading beta(s) and h_env(s) once
    beta = _at_nodes(model.beta, s_values).astype(float)
    h_env = assert_hermitian(_at_nodes(model.h_env, s_values))
    y, psi = hermitian_eig(beta[:, None, None] * h_env)
    # xi's weights in psi, complex over their real sum, and their roots, a complex
    # power, round as gibbs_state and herm_power do; real e^{-y/2} / sqrt(Z) moves Lambda
    g = np.exp(-y).astype(complex)
    xi = g / g.real.sum(axis=1, keepdims=True)
    if (xi.real < EIGENVALUE_FLOOR).any():
        i = int(np.argmin(xi.real.min(axis=1)))
        raise LinalgError(f"probe weight {xi[i].real.min():.3e} below floor at s={s_values[i]}")
    U4 = joint_unitary(model, s_values, _h_env=h_env).reshape(n, dS, dE, dS, dE)
    # A[b, a] = (Id x <psi_b|) U (Id x |psi_a>), then K_ab = xi_a^{1/2} A[b, a]
    A = np.einsum("seb,smenf,sfa->sbamn", psi.conj(), U4, psi)
    K = (np.power(xi, 0.5)[:, :, None, None, None] * A.swapaxes(1, 2)).reshape(n, -1, dS, dS)
    tp = np.abs(np.einsum("snji,snjk->sik", K.conj(), K) - np.eye(dS)).max(axis=(1, 2))
    if np.any(tp > KRAUS_MATRIX_TOL):
        i = int(np.argmax(tp))
        raise LinalgError(f"kernel at s={s_values[i]} not trace preserving: {tp[i]}")
    return KrausFamily(
        kraus=K,
        dy=(y[:, None, :] - y[:, :, None]).reshape(n, -1),
        y_eigenvalues=y,
        kron=kron_stack(K.reshape(-1, dS, dS)).reshape(n, dE * dE, dS**2, dS**2),
    )


def kraus_family(model: RISModel, s: float) -> KrausFamily:
    """The kernel of one protocol node: the one-node view of kraus_families."""
    return kraus_families(model, [s])[0]


def reduced_map(model: RISModel, s: float) -> SuperOperator:
    """The trace-preserving reduced map L(s) = L^(0)(s)."""
    return deformed_map(model, s, 0.0)


def deformed_map(model: RISModel, s: float, alpha: complex) -> SuperOperator:
    """The deformed map L^(alpha)(s): X -> sum_n e^{alpha*dy_n} K_n X K_n*.

    At alpha = 0 this is the reduced map, returned with its Kraus family and
    certified trace preserving; at any other alpha only the matrix is kept.
    """
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
