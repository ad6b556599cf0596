"""Adiabatic (slow-driving) analysis of deformed map families.

For a protocol s -> L^(alpha)(s) of deformed maps, the normalized family
F(s) = L^(alpha)(s) / lambda^(alpha)(s) has spectral radius one. Discrete
products F(k/T)...F(1/T) converge, as T grows, to the peripheral data
transported by an intertwiner W(s); this module builds the intertwiner,
evaluates the product decomposition and its residual, and assembles the
adiabatic approximation of the deformed state evolution, including the
geometric phase-type integral theta^(alpha). Chains, theta's grids and RK4
stages are ``protocol_nodes``, so each s is one double and one row; the
derivatives in s are centred differences kept in place of the neighbours.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .linalg import ordered_product, simpson, unvec, vec
from .model import RISModel, kraus_families, protocol_nodes
from .spectral import PeripheralDecomposition, PeripheralDecompositions
from .spectral import peripheral_decompositions

DERIV_STEP = 1e-5
# Nodes built per kraus_families call: bounds the memory of the kernels,
# deformed matrices and decompositions alive at once (about 4 kB per node
# for 2x2 system and probe).
PREPARE_BLOCK = 256
# The fields the module differentiates in s: rho for theta_integral and the
# spectral projectors for the intertwiner's generator
SLOPE_FIELDS = ("rho", "spectral_projectors")


def _append(table: dict[str, np.ndarray], index: dict[float, int], keys, rows: dict) -> None:
    """Append one row per key of ``keys`` to every named field of ``table``
    and map each key to its row in ``index``. One field at a time: each
    concatenation replaces its old array before the next field's is made, so
    no two generations of the table coexist; a first block is copied too,
    never kept as a view of the arrays it came from."""
    for name, new in rows.items():
        table[name] = np.concatenate([table.get(name, new[:0]), new])
    index.update(zip(keys, range(len(index), len(index) + len(keys))))


class AdiabaticFamily:
    """A protocol of deformed maps with cached peripheral data.

    Each map's matrix is built and decomposed together with the other nodes
    of its block. The cache is two tables of named fields, each with one row
    per node and a map from s to its row. The node table holds the
    normalized maps "F" beside every ``PeripheralDecompositions`` field, at
    the nodes that a reader asks for; ``read`` gathers one field's rows.
    The slope table holds, per node, the centred differences in s of the
    ``SLOPE_FIELDS``; ``slope`` gathers one of them. The neighbours
    s -+ DERIV_STEP of a difference are decomposed for it and dropped, not
    kept as rows. The period z must be constant along the protocol
    (checked per block).
    """

    def __init__(self, model: RISModel, alpha: float):
        self.model = model
        self.alpha = float(alpha)
        self._rows: dict[float, int] = {}
        self._fields: dict[str, np.ndarray] = {}
        self._slope_rows: dict[float, int] = {}
        self._slopes: dict[str, np.ndarray] = {}
        self._thetas: dict[int, complex] = {}  # theta_integral by odd grid size
        self._period: int | None = None

    @property
    def dim(self) -> int:
        return self.model.dim_sys

    def _decompose(self, block: list[float]) -> tuple[np.ndarray, PeripheralDecompositions]:
        """The deformed matrices of the nodes in block, from one stacked
        kernel, and their decompositions from one stacked pass; the kernel
        is dropped once they are built. Checks the period against the
        family's."""
        matrices = kraus_families(self.model, block).deformed_matrix(self.alpha)
        decs = peripheral_decompositions(matrices)
        if self._period is None:
            self._period = int(decs.period[0])
        changed = np.flatnonzero(decs.period != self._period)
        if changed.size:
            s = block[changed[0]]
            raise ValueError(f"peripheral period changed along the protocol at s={s}")
        return matrices, decs

    def prepare(self, s_values) -> None:
        """Build and decompose the map of every uncached s in s_values, at
        most PREPARE_BLOCK nodes at a time, keeping F and the decompositions."""
        todo = [s for s in dict.fromkeys(map(float, s_values)) if s not in self._rows]
        for start in range(0, len(todo), PREPARE_BLOCK):
            block = todo[start : start + PREPARE_BLOCK]
            matrices, decs = self._decompose(block)
            F = matrices / decs.spectral_radius[:, None, None]
            _append(self._fields, self._rows, block, {"F": F, **vars(decs)})

    def read(self, field: str, s_values) -> np.ndarray:
        """Field ``field`` ("F" or a ``PeripheralDecompositions`` field) at the
        nodes s_values, one row per node in their order; prepares any missing."""
        s_values = np.asarray(s_values, dtype=float).tolist()
        self.prepare(s_values)
        return self._fields[field][[self._rows[s] for s in s_values]]

    def slope(self, field: str, s_values) -> np.ndarray:
        """d/ds of ``field`` (one of ``SLOPE_FIELDS``) at the nodes s_values,
        one row per node in their order: (f(hi) - f(lo)) / (hi - lo) with
        lo, hi = s -+ DERIV_STEP clamped to [0, 1].

        The neighbours of PREPARE_BLOCK // 2 nodes at a time are decomposed
        as one block, every field's difference is taken, and the block is
        dropped. A node of s_values that is another's neighbour (the clamped
        s = 0 and 1) is made a row first, so that no s is built twice.
        """
        s_values = np.asarray(s_values, dtype=float).tolist()
        todo = [s for s in dict.fromkeys(s_values) if s not in self._slope_rows]
        lo, hi = _neighbours(np.array(todo))
        ends = set(lo.tolist() + hi.tolist())
        self.prepare([s for s in todo if s in ends])
        half = PREPARE_BLOCK // 2
        for start in range(0, len(todo), half):
            b_lo, b_hi = lo[start : start + half], hi[start : start + half]
            rows = {}
            for name, f in self._at_neighbours(b_hi.tolist() + b_lo.tolist()).items():
                diff = f[: len(b_lo)] - f[len(b_lo) :]
                rows[name] = diff / (b_hi - b_lo).reshape(-1, *(1,) * (diff.ndim - 1))
            _append(self._slopes, self._slope_rows, todo[start : start + half], rows)
        return self._slopes[field][[self._slope_rows[s] for s in s_values]]

    def _at_neighbours(self, ends: list[float]) -> dict[str, np.ndarray]:
        """The ``SLOPE_FIELDS`` at the nodes ends, in their order: read where
        a node is a row, else decomposed here and not kept."""
        known = [t for t in dict.fromkeys(ends) if t in self._rows]
        new = [t for t in dict.fromkeys(ends) if t not in self._rows]
        parts = []
        if new:
            decs = self._decompose(new)[1]
            parts.append([getattr(decs, name) for name in SLOPE_FIELDS])
        if known:
            rows = [self._rows[t] for t in known]
            parts.append([self._fields[name][rows] for name in SLOPE_FIELDS])
        at = {t: i for i, t in enumerate(new + known)}
        order = [at[t] for t in ends]
        return {name: np.concatenate(f)[order] for name, f in zip(SLOPE_FIELDS, zip(*parts))}

    def decomposition(self, s: float) -> PeripheralDecomposition:
        """The peripheral decomposition at s, a row of the cache."""
        one = {f.name: self.read(f.name, [s]) for f in fields(PeripheralDecompositions)}
        return PeripheralDecompositions(**one)[0]

    def gap_bound(self, s_grid) -> float:
        """ell = sup over the grid of spr(F(s) Q(s)); must be < 1."""
        s_grid = np.atleast_1d(s_grid)
        FQ = self.read("F", s_grid) @ _complement(self.read("spectral_projectors", s_grid))
        return float(np.abs(np.linalg.eigvals(FQ)).max())


def _complement(P: np.ndarray) -> np.ndarray:
    """Q = Id - sum_m P^m, the projector onto the rest of the spectrum, per node."""
    return np.eye(P.shape[-1], dtype=complex) - P.sum(axis=1)


def _neighbours(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nodes s -+ DERIV_STEP of a centred difference, clamped to [0, 1]."""
    return np.maximum(s - DERIV_STEP, 0.0), np.minimum(s + DERIV_STEP, 1.0)


def intertwiner(family: AdiabaticFamily, stages) -> np.ndarray:
    """W(1) of W' = A(s) W, W(0) = Id, by classical RK4 over the odd stage grid
    s_0, s_1/2, s_1, ..., s_T, such as ``protocol_nodes(2T)`` for T steps.

    W transports the spectral projectors: W(s) P^m(0) W(s)^{-1} = P^m(s).
    The generator A(s) = sum_m dP^m/ds @ P^m (dP^m/ds the family's slope,
    a centred difference) is one stack over the stages. The ODE is linear,
    so step j is the matrix R_j = Id + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A1,
    K2 = A2 (Id + h/2 K1), K3 = A2 (Id + h/2 K2), K4 = A4 (Id + h K3), and
    W(1) is the ordered product of the R_j.
    """
    # dP/ds is a temporary of the product, not kept through the RK4 steps
    A = (family.slope("spectral_projectors", stages)
         @ family.read("spectral_projectors", stages)).sum(axis=1)
    A1, A2, A4 = A[0:-1:2], A[1::2], A[2::2]
    h = np.diff(stages[0::2])[:, None, None]
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
    s = protocol_nodes(T)
    W = intertwiner(family, protocol_nodes(2 * T))  # prepares every node read below
    F, P = family.read("F", s[1:]), family.read("spectral_projectors", s)
    Q = _complement(P)
    chain, qchain = ordered_product(np.stack((F, F @ Q[1:])))
    z = P.shape[1]
    phases = np.exp(2j * np.pi / z) ** (np.arange(z) * T)  # theta^{m T}
    approx = W @ np.einsum("m,mab->ab", phases, P[0]) + qchain @ Q[0]
    return float(np.linalg.norm(chain - approx, 2))


def _theta_grid(n_nodes: int) -> np.ndarray:
    """The odd protocol grid of at least n_nodes nodes that theta is integrated on."""
    return protocol_nodes(n_nodes - n_nodes % 2)


def theta_integral(family: AdiabaticFamily, *, n_nodes: int = 201) -> complex:
    """theta^(alpha)(1) = int_0^1 Tr(iota(s) d rho(s)/ds) ds.

    Composite Simpson quadrature (``linalg.simpson``) on an odd uniform grid
    of at least n_nodes nodes, with d rho/ds the family's slope. Each grid
    is integrated once per family and the value cached on it.
    """
    s_grid = _theta_grid(n_nodes)
    if s_grid.size not in family._thetas:
        drho = family.slope("rho", s_grid)
        vals = np.trace(family.read("iota", s_grid) @ drho, axis1=1, axis2=2)
        family._thetas[s_grid.size] = complex(simpson(vals, x=s_grid))
    return family._thetas[s_grid.size]


def _label_shift(family: AdiabaticFamily, s_grid: np.ndarray, z: int) -> int:
    """J mod z: the cycle projector labelled m at s_grid[0] is labelled
    m + J at s_grid[-1].

    Each node's u is fixed only up to a z-th root of unity. Between
    neighbouring nodes, w_k = Tr(u_{k+1} u_k*) / d is near theta^(j_k) for
    the root j_k by which the labels turn; J = sum_k j_k. Reads the nodes
    that ``theta_integral`` prepared on the same grid.
    """
    u = family.read("cycle_unitary", s_grid)
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
    F = family.read("F", protocol_nodes(T)[1:])
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
    J = _label_shift(family, _theta_grid(n_nodes), z) if z > 1 else 0
    out = np.zeros((family.dim,) * 2, dtype=complex)
    for m in range(z):
        weight = np.trace(dec0.iota @ dec0.cycle_projectors[m] @ rho_i)
        out += weight * decs.rho @ decs.cycle_projectors[(m - T + J) % z]
    return z * phase * out
