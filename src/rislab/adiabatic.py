"""Adiabatic (slow-driving) analysis of deformed map families.

For a protocol s -> L^(alpha)(s) of deformed maps, the normalized family
F(s) = L^(alpha)(s) / lambda^(alpha)(s) has spectral radius one. Discrete
products F(k/T)...F(1/T) converge, as T grows, to the peripheral data
transported by an intertwiner W(s); this module builds the intertwiner,
evaluates the product decomposition and its residual, and assembles the
adiabatic approximation of the deformed state evolution, including the
geometric phase-type integral theta^(alpha). Chains, theta's grids and RK4
stages are ``protocol_nodes``, so each s is one double and one row; a row
keeps the centred differences in s of its neighbours in place of them.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .linalg import ordered_product, simpson, unvec, vec
from .model import RISModel, kraus_families, protocol_nodes
from .spectral import PeripheralDecomposition, PeripheralDecompositions
from .spectral import peripheral_decompositions

DERIV_STEP = 1e-5
# Kernels built per kraus_families call: a block of PREPARE_BLOCK // 3 nodes
# and their two neighbours each. Bounds the memory of the kernels, deformed
# matrices and decompositions alive at once (about 4 kB per kernel for 2x2
# system and probe).
PREPARE_BLOCK = 256
# The fields the module differentiates in s: rho for theta_integral and the
# spectral projectors for the intertwiner's generator
SLOPE_FIELDS = ("rho", "spectral_projectors")
# The fewest nodes of theta's Simpson grid
THETA_MIN_NODES = 201


class AdiabaticFamily:
    """A protocol of deformed maps with cached peripheral data.

    The cache is one table of named fields, with one row per node and a map
    from s to its row: the normalized maps "F", every
    ``PeripheralDecompositions`` field and, as "d" + name, the centred
    difference in s of each ``SLOPE_FIELDS`` name. ``prepare`` fills it and
    ``read`` gathers one field's rows. The period z must be constant along
    the protocol (checked per block).
    """

    def __init__(self, model: RISModel, alpha: float):
        self.model = model
        self.alpha = float(alpha)
        self._rows: dict[float, int] = {}
        self._fields: dict[str, np.ndarray] = {}
        self._thetas: dict[int, complex] = {}  # theta_integral by odd grid size

    @property
    def dim(self) -> int:
        return self.model.dim_sys

    def prepare(self, s_values) -> None:
        """Build every uncached s of s_values with its neighbours lo, hi =
        s -+ DERIV_STEP clamped to [0, 1]: ascending blocks of at most
        PREPARE_BLOCK // 3 nodes, each one stacked kernel, one
        ``peripheral_decompositions`` call and a period check. A row keeps F,
        the decomposition and (f(hi) - f(lo)) / (hi - lo) of each SLOPE_FIELDS
        f. A block ends at a gap that parts no node from its neighbour, so a
        call builds each s once, unless a window has no such gap (nodes
        DERIV_STEP apart): it is cut at its end, and a node across the cut is
        built twice. Calls share rows, not neighbours."""
        todo = np.array(sorted(set(map(float, s_values)).difference(self._rows)))
        grid = np.stack([todo, *_neighbours(todo)])  # the nodes, their lo and hi
        # gap[i]: todo[i] and todo[i + 1] lie beyond each other's neighbours
        gap = np.append((grid[2, :-1] < todo[1:]) & (grid[1, 1:] > todo[:-1]), True)
        stop = 0
        while stop < todo.size:
            start, window = stop, gap[stop : stop + PREPARE_BLOCK // 3]
            stop += np.flatnonzero(window)[-1] + 1 if window.any() else window.size
            nodes, at = np.unique(grid[:, start:stop], return_inverse=True)
            matrices = kraus_families(self.model, nodes).deformed_matrix(self.alpha)
            decs = peripheral_decompositions(matrices)
            period = self._fields["period"][0] if self._rows else decs.period[0]
            if (changed := nodes[decs.period != period]).size:
                raise ValueError(f"peripheral period changed along the protocol at s={changed[0]}")
            row, i_lo, i_hi = at.reshape(3, -1)
            block, ds = nodes[row].tolist(), nodes[i_hi] - nodes[i_lo]
            rows = {"F": matrices[row] / decs.spectral_radius[row, None, None]}
            rows.update((name, f[row]) for name, f in vars(decs).items())
            for name in SLOPE_FIELDS:
                diff = getattr(decs, name)[i_hi] - getattr(decs, name)[i_lo]
                rows["d" + name] = diff / ds.reshape(-1, *(1,) * (diff.ndim - 1))
            # one field at a time, so no two generations of the table coexist
            for name, new in rows.items():
                self._fields[name] = np.concatenate([self._fields.get(name, new[:0]), new])
            self._rows.update(zip(block, range(len(self._rows), len(self._rows) + len(block))))

    def read(self, field: str, s_values) -> np.ndarray:
        """Field ``field`` ("F", a ``PeripheralDecompositions`` field or "d"
        + one of ``SLOPE_FIELDS``) at the nodes s_values, one row per node in
        their order; prepares any missing."""
        s_values = np.asarray(s_values, dtype=float).tolist()
        self.prepare(s_values)
        return self._fields[field][[self._rows[s] for s in s_values]]

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
    The generator A(s) = sum_m dP^m/ds @ P^m (dP^m/ds the family's
    "dspectral_projectors") is one stack over the stages. The ODE is linear,
    so step j is the matrix R_j = Id + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A1,
    K2 = A2 (Id + h/2 K1), K3 = A2 (Id + h/2 K2), K4 = A4 (Id + h K3), and
    W(1) is the ordered product of the R_j.
    """
    # dP/ds is a temporary of the product, not kept through the RK4 steps
    A = (family.read("dspectral_projectors", stages)
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


def theta_integral(family: AdiabaticFamily, *, n_nodes: int = THETA_MIN_NODES) -> complex:
    """theta^(alpha)(1) = int_0^1 Tr(iota(s) d rho(s)/ds) ds.

    Composite Simpson quadrature (``linalg.simpson``) on an odd uniform grid
    of at least n_nodes nodes, with d rho/ds the family's "drho". Each grid
    is integrated once per family and the value cached on it.
    """
    s_grid = _theta_grid(n_nodes)
    if s_grid.size not in family._thetas:
        drho = family.read("drho", s_grid)
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
    n_nodes = max(THETA_MIN_NODES, T + 1)
    phase = np.exp(-theta_integral(family, n_nodes=n_nodes))
    J = _label_shift(family, _theta_grid(n_nodes), z) if z > 1 else 0
    out = np.zeros((family.dim,) * 2, dtype=complex)
    for m in range(z):
        weight = np.trace(dec0.iota @ dec0.cycle_projectors[m] @ rho_i)
        out += weight * decs.rho @ decs.cycle_projectors[(m - T + J) % z]
    return z * phase * out
