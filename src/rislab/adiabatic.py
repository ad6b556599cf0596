"""Adiabatic (slow-driving) analysis of deformed map families.

For a protocol s -> L^(alpha)(s) of deformed maps, the normalized family
F(s) = L^(alpha)(s) / lambda^(alpha)(s) has spectral radius one. Discrete
products F(k/T)...F(1/T) converge, as T grows, to the peripheral data
transported by an intertwiner W(s); this module builds the intertwiner,
evaluates the product decomposition and its residual, and assembles the
adiabatic approximation of the deformed state evolution, including the
geometric phase-type integral theta^(alpha).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.integrate import simpson

from .linalg import unvec, vec
from .model import RISModel, kraus_families
from .spectral import PeripheralDecomposition, peripheral_decompositions

DERIV_STEP = 1e-5
# Kernels built per kraus_families call in prepare: bounds the memory of the
# kernels alive at once (about 17 kB per node for 2x2 system and probe).
PREPARE_BLOCK = 256


class NodeStack(NamedTuple):
    """Peripheral data of N nodes, stacked along a leading node axis.

    F: the normalized maps L^(alpha)(s) / lambda^(alpha)(s), (N, d^2, d^2).
    P: the spectral projectors P^m(s), (N, z, d^2, d^2), ordered by m.
    rho, iota: the right and left Perron eigenvectors, (N, d, d).
    """

    F: np.ndarray
    P: np.ndarray
    rho: np.ndarray
    iota: np.ndarray

    @property
    def Q(self) -> np.ndarray:
        """Q(s) = Id - sum_m P^m(s), the projector onto the rest of the spectrum."""
        return np.eye(self.F.shape[-1], dtype=complex) - self.P.sum(axis=1)


class AdiabaticFamily:
    """A protocol of deformed maps with cached peripheral data.

    Each map's matrix is built and decomposed together with the other nodes
    of its block and cached by s; the peripheral period z must be constant
    along the protocol (checked as each block is decomposed).
    """

    def __init__(self, model: RISModel, alpha: float):
        self.model = model
        self.alpha = float(alpha)
        self._matrices: dict[float, np.ndarray] = {}
        self._decs: dict[float, PeripheralDecomposition] = {}
        self._period: int | None = None

    @property
    def dim(self) -> int:
        return self.model.dim_sys

    def prepare(self, s_values) -> None:
        """Build and decompose the map of every uncached s in s_values.

        Each block of at most PREPARE_BLOCK nodes is built from one stacked
        kernel and decomposed in one stacked pass. Only the matrices and their
        decompositions are kept; the kernel is dropped once they are built.
        """
        todo = [s for s in dict.fromkeys(map(float, s_values)) if s not in self._decs]
        for start in range(0, len(todo), PREPARE_BLOCK):
            block = todo[start : start + PREPARE_BLOCK]
            matrices = kraus_families(self.model, block).deformed_matrix(self.alpha)
            decs = peripheral_decompositions(matrices)
            if self._period is None:
                self._period = decs[0].period
            for s, dec in zip(block, decs):
                if dec.period != self._period:
                    raise ValueError(
                        f"peripheral period changed along the protocol at s={s}"
                    )
            self._matrices.update(zip(block, matrices))
            self._decs.update(zip(block, decs))

    def decomposition(self, s: float) -> PeripheralDecomposition:
        s = float(s)
        if s not in self._decs:
            self.prepare([s])
        return self._decs[s]

    def stack(self, s_values) -> NodeStack:
        """The peripheral data of the nodes s_values, in their order."""
        s_values = np.asarray(s_values, dtype=float).tolist()
        self.prepare(s_values)
        decs = [self._decs[s] for s in s_values]
        radii = np.array([d.spectral_radius for d in decs])
        return NodeStack(
            F=np.stack([self._matrices[s] for s in s_values]) / radii[:, None, None],
            P=np.stack([d.spectral_projectors for d in decs]),
            rho=np.stack([d.rho for d in decs]),
            iota=np.stack([d.iota for d in decs]),
        )

    def gap_bound(self, s_grid) -> float:
        """ell = sup over the grid of spr(F(s) Q(s)); must be < 1."""
        nodes = self.stack(np.atleast_1d(s_grid))
        return float(np.abs(np.linalg.eigvals(nodes.F @ nodes.Q)).max())


def _neighbours(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nodes s -+ DERIV_STEP of a centred difference, clamped to [0, 1]."""
    return np.maximum(s - DERIV_STEP, 0.0), np.minimum(s + DERIV_STEP, 1.0)


def _derivative(family: AdiabaticFamily, s: np.ndarray, field: str) -> np.ndarray:
    """Centred difference d/ds of one NodeStack field at each node of s."""
    lo, hi = _neighbours(s)
    diff = getattr(family.stack(hi), field) - getattr(family.stack(lo), field)
    return diff / (hi - lo).reshape(-1, *(1,) * (diff.ndim - 1))


def intertwiner(family: AdiabaticFamily, s_nodes) -> np.ndarray:
    """Solve W' = A(s) W, W(0) = Id, with classical RK4 on the given nodes.

    Returns the stack of W(s) at the nodes. The intertwiner transports the
    spectral projectors: W(s) P^m(0) W(s)^{-1} = P^m(s). The generator
    A(s) = sum_m dP^m/ds @ P^m is evaluated at the 2T + 1 distinct nodes
    of T steps (each step's end is the next step's start) as one stack,
    with dP^m/ds a centred difference.
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    h = np.diff(s_nodes)
    s = np.empty(2 * s_nodes.size - 1)
    s[0::2] = s_nodes
    s[1::2] = s_nodes[:-1] + h / 2
    A = (_derivative(family, s, "P") @ family.stack(s).P).sum(axis=1)
    W = np.eye(family.dim**2, dtype=complex)
    out = [W.copy()]
    for j, hj in enumerate(h):
        A1, A2, A4 = A[2 * j], A[2 * j + 1], A[2 * j + 2]
        k1 = A1 @ W
        k2 = A2 @ (W + hj / 2 * k1)
        k3 = A2 @ (W + hj / 2 * k2)
        k4 = A4 @ (W + hj * k3)
        W = W + hj / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(W.copy())
    return np.stack(out)


def product_decomposition_residual(family: AdiabaticFamily, T: int) -> float:
    """Operator-norm residual of the adiabatic product decomposition.

    Compares the exact normalized chain F(T/T)...F(1/T) against
    sum_m theta^{m T} W(1) P^m(0) plus the peripheral-complement chain
    (F Q)(T/T)...(F Q)(1/T) Q(0); the residual decays like 1/T.
    """
    s = np.array([j / T for j in range(T + 1)])
    W = intertwiner(family, s)[-1]  # prepares every node read below
    nodes = family.stack(s)
    Q = nodes.Q
    chain = qchain = np.eye(family.dim**2, dtype=complex)
    for F, FQ in zip(nodes.F[1:], nodes.F[1:] @ Q[1:]):
        chain = F @ chain
        qchain = FQ @ qchain
    z = nodes.P.shape[1]
    theta = np.exp(2j * np.pi / z)
    approx = sum(theta ** (m * T) * (W @ nodes.P[0, m]) for m in range(z))
    approx = approx + qchain @ Q[0]
    return float(np.linalg.norm(chain - approx, 2))


def theta_integral(family: AdiabaticFamily, *, n_nodes: int = 201) -> complex:
    """theta^(alpha)(1) = int_0^1 Tr(iota(s) d rho(s)/ds) ds.

    Composite Simpson quadrature on an odd uniform grid of at least n_nodes
    nodes, with d rho/ds a centred difference.
    """
    if n_nodes % 2 == 0:
        n_nodes += 1
    s_grid = np.linspace(0.0, 1.0, n_nodes)
    drho = _derivative(family, s_grid, "rho")
    vals = np.trace(family.stack(s_grid).iota @ drho, axis1=1, axis2=2)
    return complex(simpson(vals, x=s_grid))


def exact_deformed_chain(
    family: AdiabaticFamily, rho_i: np.ndarray, T: int
) -> np.ndarray:
    """Apply the normalized deformed chain F(T/T)...F(1/T) to a state."""
    x = vec(rho_i)
    for F in family.stack([j / T for j in range(1, T + 1)]).F:
        x = F @ x
    return unvec(x, family.dim)


def deformed_adiabatic_state(
    family: AdiabaticFamily, rho_i: np.ndarray, T: int
) -> np.ndarray:
    """Leading adiabatic approximation of the normalized deformed chain.

    z * e^{-theta^(alpha)(1)} * sum_m Tr(iota(0) p_m(0) rho_i)
    rho^(alpha)(1) p_{m-T mod z}(1); the exact chain F(T/T)...F(1/T)
    differs from this by O(1/T).
    """
    dec0 = family.decomposition(0.0)
    decs = family.decomposition(1.0)
    z = dec0.period
    phase = np.exp(-theta_integral(family, n_nodes=max(201, T + 1)))
    out = np.zeros((family.dim,) * 2, dtype=complex)
    for m in range(z):
        weight = np.trace(dec0.iota @ dec0.cycle_projectors[m] @ rho_i)
        out += weight * decs.rho @ decs.cycle_projectors[(m - T) % z]
    return z * phase * out


def adiabatic_state(
    model: RISModel, rho_i: np.ndarray, T: int, k: int | None = None
) -> np.ndarray:
    """Adiabatic approximation of the physical (alpha = 0) evolved state.

    z * sum_n Tr(p_n(0) rho_i) rho_inv(k/T) p_{n-k mod z}(k/T); it has unit
    trace and approximates L(k/T)...L(1/T) rho_i to O(1/T).
    """
    family = AdiabaticFamily(model, 0.0)
    if k is None:
        k = T
    dec0 = family.decomposition(0.0)
    decs = family.decomposition(k / T)
    z = dec0.period
    out = np.zeros((model.dim_sys,) * 2, dtype=complex)
    for n in range(z):
        weight = np.trace(dec0.cycle_projectors[n] @ rho_i)
        out += weight * decs.rho @ decs.cycle_projectors[(n - k) % z]
    return z * out
