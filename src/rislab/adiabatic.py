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

from .linalg import ordered_product, simpson, unvec, vec
from .model import RISModel, kraus_families
from .spectral import PeripheralDecomposition, PeripheralDecompositions
from .spectral import peripheral_decompositions

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


def _appended(cache: np.ndarray | None, n: int, rows: np.ndarray) -> np.ndarray:
    """``cache`` with ``rows`` written from row n on; a full cache is copied
    into one of twice the size first, so appending costs O(1) per row."""
    if cache is None or n + len(rows) > len(cache):
        grown = np.empty((max(2 * n, n + len(rows)), *rows.shape[1:]), rows.dtype)
        if cache is not None:
            grown[:n] = cache[:n]
        cache = grown
    cache[n : n + len(rows)] = rows
    return cache


class AdiabaticFamily:
    """A protocol of deformed maps with cached peripheral data.

    Each map's matrix is built and decomposed together with the other nodes
    of its block. The cache is node stacks, one row per node and a map from
    s to its row: the normalized maps F and the peripheral decompositions.
    The period z must be constant along the protocol (checked per block).
    """

    def __init__(self, model: RISModel, alpha: float):
        self.model = model
        self.alpha = float(alpha)
        self._rows: dict[float, int] = {}
        # F and each PeripheralDecompositions field by name: len(self._rows)
        # filled rows, then unfilled capacity
        self._F: np.ndarray | None = None
        self._decs: dict[str, np.ndarray] = {}
        self._thetas: dict[int, complex] = {}  # theta_integral by odd grid size
        self._period: int | None = None

    @property
    def dim(self) -> int:
        return self.model.dim_sys

    def prepare(self, s_values) -> None:
        """Build and decompose the map of every uncached s in s_values.

        Each block of at most PREPARE_BLOCK nodes is built from one stacked
        kernel and decomposed in one stacked pass. Only F and the
        decompositions are kept; the kernel is dropped once they are built.
        """
        todo = [s for s in dict.fromkeys(map(float, s_values)) if s not in self._rows]
        for start in range(0, len(todo), PREPARE_BLOCK):
            block = todo[start : start + PREPARE_BLOCK]
            matrices = kraus_families(self.model, block).deformed_matrix(self.alpha)
            decs = peripheral_decompositions(matrices)
            if self._period is None:
                self._period = int(decs.period[0])
            changed = np.flatnonzero(decs.period != self._period)
            if changed.size:
                s = block[changed[0]]
                raise ValueError(f"peripheral period changed along the protocol at s={s}")
            n = len(self._rows)
            self._F = _appended(self._F, n, matrices / decs.spectral_radius[:, None, None])
            self._decs = {
                k: _appended(self._decs.get(k), n, v) for k, v in vars(decs).items()
            }
            self._rows.update(zip(block, range(n, n + len(block))))

    def decomposition(self, s: float) -> PeripheralDecomposition:
        """The peripheral decomposition at s, a row of the cache."""
        s = float(s)
        self.prepare([s])
        row = self._rows[s]
        one = {k: v[row : row + 1] for k, v in self._decs.items()}
        return PeripheralDecompositions(**one)[0]

    def stack(self, s_values) -> NodeStack:
        """The peripheral data of the nodes s_values, in their order."""
        s_values = np.asarray(s_values, dtype=float).tolist()
        self.prepare(s_values)
        rows = np.array([self._rows[s] for s in s_values])
        return NodeStack(
            F=self._F[rows],
            P=self._decs["spectral_projectors"][rows],
            rho=self._decs["rho"][rows],
            iota=self._decs["iota"][rows],
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
    """W(1) of W' = A(s) W, W(0) = Id, by classical RK4 on the (>= 2) given nodes.

    W transports the spectral projectors: W(s) P^m(0) W(s)^{-1} = P^m(s).
    The generator A(s) = sum_m dP^m/ds @ P^m (dP^m/ds a centred difference)
    is one stack over the 2T + 1 distinct nodes of T steps. The ODE is linear,
    so step j is the matrix R_j = Id + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A1,
    K2 = A2 (Id + h/2 K1), K3 = A2 (Id + h/2 K2), K4 = A4 (Id + h K3), and
    W(1) is the ordered product of the R_j.
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    h = np.diff(s_nodes)
    s = np.empty(2 * s_nodes.size - 1)
    s[0::2] = s_nodes
    s[1::2] = s_nodes[:-1] + h / 2
    A = (_derivative(family, s, "P") @ family.stack(s).P).sum(axis=1)
    A1, A2, A4 = A[0:-1:2], A[1::2], A[2::2]
    h = h[:, None, None]
    Id = np.eye(family.dim**2, dtype=complex)
    k2 = A2 @ (Id + h / 2 * A1)
    k3 = A2 @ (Id + h / 2 * k2)
    k4 = A4 @ (Id + h * k3)
    return ordered_product(Id + h / 6 * (A1 + 2 * k2 + 2 * k3 + k4))


def product_decomposition_residual(family: AdiabaticFamily, T: int) -> float:
    """Operator-norm residual of the adiabatic product decomposition.

    Compares the exact normalized chain F(T/T)...F(1/T) against
    sum_m theta^{m T} W(1) P^m(0) plus the peripheral-complement chain
    (F Q)(T/T)...(F Q)(1/T) Q(0); the residual decays like 1/T.
    """
    s = np.array([j / T for j in range(T + 1)])
    W = intertwiner(family, s)  # prepares every node read below
    nodes = family.stack(s)
    Q = nodes.Q
    chain, qchain = ordered_product(np.stack((nodes.F[1:], nodes.F[1:] @ Q[1:])))
    z = nodes.P.shape[1]
    phases = np.exp(2j * np.pi / z) ** (np.arange(z) * T)  # theta^{m T}
    approx = W @ np.einsum("m,mab->ab", phases, nodes.P[0]) + qchain @ Q[0]
    return float(np.linalg.norm(chain - approx, 2))


def _theta_grid(n_nodes: int) -> np.ndarray:
    """The odd uniform grid of at least n_nodes nodes that theta is integrated on."""
    return np.linspace(0.0, 1.0, n_nodes | 1)


def theta_integral(family: AdiabaticFamily, *, n_nodes: int = 201) -> complex:
    """theta^(alpha)(1) = int_0^1 Tr(iota(s) d rho(s)/ds) ds.

    Composite Simpson quadrature (``linalg.simpson``) on an odd uniform grid
    of at least n_nodes nodes, with d rho/ds a centred difference. Each grid
    is integrated once per family and the value cached on it.
    """
    s_grid = _theta_grid(n_nodes)
    if s_grid.size not in family._thetas:
        drho = _derivative(family, s_grid, "rho")
        vals = np.trace(family.stack(s_grid).iota @ drho, axis1=1, axis2=2)
        family._thetas[s_grid.size] = complex(simpson(vals, x=s_grid))
    return family._thetas[s_grid.size]


def _label_shift(family: AdiabaticFamily, s_grid: np.ndarray) -> int:
    """J mod z: the cycle projector labelled m at s_grid[0] is labelled
    m + J at s_grid[-1].

    Each node's u is fixed only up to a z-th root of unity. Between
    neighbouring nodes, w_k = Tr(u_{k+1} u_k*) / d is near theta^(j_k) for
    the root j_k by which the labels turn; J = sum_k j_k. Reads the nodes
    that ``theta_integral`` prepared on the same grid.
    """
    z = family._period
    u = family._decs["cycle_unitary"][[family._rows[s] for s in s_grid.tolist()]]
    w = np.einsum("kab,kab->k", u[1:], u[:-1].conj()) / family.dim
    j = np.round(np.angle(w) * z / (2 * np.pi)).astype(int)
    # each step must stay within a quarter of the distance between two roots
    off = np.abs(w - np.exp(2j * np.pi * j / z))
    jump = off > 0.25 * abs(1 - np.exp(2j * np.pi / z))
    if jump.any():
        k = int(np.argmax(jump))
        raise ValueError(
            f"cycle unitary cannot be followed from s={s_grid[k]} to s={s_grid[k + 1]}"
        )
    return int(j.sum() % z)


def exact_deformed_chain(
    family: AdiabaticFamily, rho_i: np.ndarray, T: int
) -> np.ndarray:
    """Apply the normalized deformed chain F(T/T)...F(1/T) to a state."""
    F = family.stack([j / T for j in range(1, T + 1)]).F
    return unvec(ordered_product(F) @ vec(rho_i), family.dim)


def deformed_adiabatic_state(
    family: AdiabaticFamily, rho_i: np.ndarray, T: int
) -> np.ndarray:
    """Leading adiabatic approximation of the normalized deformed chain.

    z * e^{-theta^(alpha)(1)} * sum_m Tr(iota(0) p_m(0) rho_i)
    rho^(alpha)(1) p_{m-T mod z}(1); the exact chain F(T/T)...F(1/T)
    differs from this by O(1/T). The labels m are carried from s = 0 to
    s = 1 by following u along theta's grid (``_label_shift``).
    """
    dec0 = family.decomposition(0.0)
    decs = family.decomposition(1.0)
    z = dec0.period
    n_nodes = max(201, T + 1)
    phase = np.exp(-theta_integral(family, n_nodes=n_nodes))
    J = _label_shift(family, _theta_grid(n_nodes)) if z > 1 else 0
    out = np.zeros((family.dim,) * 2, dtype=complex)
    for m in range(z):
        weight = np.trace(dec0.iota @ dec0.cycle_projectors[m] @ rho_i)
        out += weight * decs.rho @ decs.cycle_projectors[(m - T + J) % z]
    return z * phase * out
