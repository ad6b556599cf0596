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

import numpy as np
from scipy.integrate import simpson

from .linalg import SuperOperator, unvec, vec
from .model import RISModel, deformed_map, kraus_families
from .spectral import PeripheralDecomposition, peripheral_decomposition

DERIV_STEP = 1e-5
# Kernels built per kraus_families call in prepare: bounds the memory of the
# kernels alive at once (about 17 kB per node for 2x2 system and probe).
PREPARE_BLOCK = 256


class AdiabaticFamily:
    """A protocol of deformed maps with cached peripheral data.

    Evaluations at repeated s values are cached; the peripheral period z
    must be constant along the protocol (checked lazily).
    """

    def __init__(self, model: RISModel, alpha: float):
        self.model = model
        self.alpha = float(alpha)
        self._maps: dict[float, SuperOperator] = {}
        self._decs: dict[float, PeripheralDecomposition] = {}
        self._period: int | None = None

    @property
    def dim(self) -> int:
        return self.model.dim_sys

    def prepare(self, s_values) -> None:
        """Build the maps of every uncached s in s_values from stacked kernels.

        Only the maps are kept; each kernel is dropped once its map is built.
        """
        todo = [s for s in dict.fromkeys(map(float, s_values)) if s not in self._maps]
        for start in range(0, len(todo), PREPARE_BLOCK):
            block = todo[start : start + PREPARE_BLOCK]
            for s, fam in zip(block, kraus_families(self.model, block)):
                self._maps[s] = deformed_map(self.model, s, self.alpha, fam=fam)

    def map(self, s: float) -> SuperOperator:
        s = float(s)
        if s not in self._maps:
            self.prepare([s])
        return self._maps[s]

    def decomposition(self, s: float) -> PeripheralDecomposition:
        s = float(s)
        if s not in self._decs:
            dec = peripheral_decomposition(self.map(s))
            if self._period is None:
                self._period = dec.period
            elif dec.period != self._period:
                raise ValueError(
                    f"peripheral period changed along the protocol at s={s}"
                )
            self._decs[s] = dec
        return self._decs[s]

    def lam(self, s: float) -> float:
        return self.decomposition(s).spectral_radius

    def normalized(self, s: float) -> np.ndarray:
        """Matrix of F(s) = L^(alpha)(s) / lambda^(alpha)(s)."""
        return self.map(s).matrix / self.lam(s)

    def peripheral_projector(self, s: float) -> np.ndarray:
        return sum(self.decomposition(s).spectral_projectors)

    def complement(self, s: float) -> np.ndarray:
        d2 = self.dim**2
        return np.eye(d2, dtype=complex) - self.peripheral_projector(s)

    def gap_bound(self, s_grid) -> float:
        """ell = sup over the grid of spr(F(s) Q(s)); must be < 1."""
        worst = 0.0
        for s in np.atleast_1d(s_grid):
            FQ = self.normalized(s) @ self.complement(s)
            worst = max(worst, float(np.abs(np.linalg.eigvals(FQ)).max()))
        return worst


def _neighbours(s: float) -> tuple[float, float]:
    """The nodes s -+ DERIV_STEP of a centred difference, clamped to [0, 1]."""
    return max(s - DERIV_STEP, 0.0), min(s + DERIV_STEP, 1.0)


def _with_neighbours(centres) -> list[float]:
    """Every node a centred difference at each of ``centres`` reads."""
    return [t for s in centres for t in (s, *_neighbours(s))]


def _projector_derivative(family: AdiabaticFamily, s: float) -> list:
    """Centered-difference derivatives of the spectral projectors at s."""
    lo, hi = _neighbours(s)
    dec_lo = family.decomposition(lo)
    dec_hi = family.decomposition(hi)
    return [
        (Ph - Pl) / (hi - lo)
        for Ph, Pl in zip(dec_hi.spectral_projectors, dec_lo.spectral_projectors)
    ]


def _generator(family: AdiabaticFamily, s: float) -> np.ndarray:
    """A(s) = sum_m dP^m/ds @ P^m, the intertwiner generator."""
    dec = family.decomposition(s)
    dPs = _projector_derivative(family, s)
    A = np.zeros((family.dim**2,) * 2, dtype=complex)
    for dP, P in zip(dPs, dec.spectral_projectors):
        A += dP @ P
    return A


def intertwiner(family: AdiabaticFamily, s_nodes) -> np.ndarray:
    """Solve W' = A(s) W, W(0) = Id, with classical RK4 on the given nodes.

    Returns the stack of W(s) at the nodes. The intertwiner transports the
    spectral projectors: W(s) P^m(0) W(s)^{-1} = P^m(s).
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    steps = list(zip(s_nodes[:-1], s_nodes[1:]))
    rk4_nodes = [t for a, b in steps for t in (a, a + (b - a) / 2, b)]
    family.prepare(_with_neighbours(rk4_nodes))
    d2 = family.dim**2
    W = np.eye(d2, dtype=complex)
    out = [W.copy()]
    for a, b in steps:
        h = b - a
        A1 = _generator(family, a)
        A2 = _generator(family, a + h / 2)
        A4 = _generator(family, b)
        k1 = A1 @ W
        k2 = A2 @ (W + h / 2 * k1)
        k3 = A2 @ (W + h / 2 * k2)
        k4 = A4 @ (W + h * k3)
        W = W + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(W.copy())
    return np.stack(out)


def product_decomposition_residual(family: AdiabaticFamily, T: int) -> float:
    """Operator-norm residual of the adiabatic product decomposition.

    Compares the exact normalized chain F(T/T)...F(1/T) against
    sum_m theta^{m T} W(1) P^m(0) plus the peripheral-complement chain
    (F Q)(T/T)...(F Q)(1/T) Q(0); the residual decays like 1/T.
    """
    nodes = np.array([j / T for j in range(T + 1)])
    W = intertwiner(family, nodes)[-1]  # prepares every node read below
    dec0 = family.decomposition(0.0)
    z = dec0.period
    theta = np.exp(2j * np.pi / z)

    d2 = family.dim**2
    chain = np.eye(d2, dtype=complex)
    qchain = np.eye(d2, dtype=complex)
    for j in range(1, T + 1):
        s = j / T
        F = family.normalized(s)
        chain = F @ chain
        qchain = (F @ family.complement(s)) @ qchain
    approx = sum(
        theta ** (m * T) * (W @ dec0.spectral_projectors[m]) for m in range(z)
    )
    approx = approx + qchain @ family.complement(0.0)
    return float(np.linalg.norm(chain - approx, 2))


def theta_integral(family: AdiabaticFamily, *, n_nodes: int = 201) -> complex:
    """theta^(alpha)(1) = int_0^1 Tr(iota(s) d rho(s)/ds) ds.

    Composite Simpson quadrature on an odd uniform grid of at least n_nodes
    nodes.
    """
    if n_nodes % 2 == 0:
        n_nodes += 1
    s_grid = np.linspace(0.0, 1.0, n_nodes)
    family.prepare(_with_neighbours(s_grid))
    vals = np.empty(n_nodes, dtype=complex)
    for i, s in enumerate(s_grid):
        lo, hi = _neighbours(s)
        drho = (family.decomposition(hi).rho - family.decomposition(lo).rho) / (
            hi - lo
        )
        vals[i] = np.trace(family.decomposition(float(s)).iota @ drho)
    return complex(simpson(vals, x=s_grid))


def exact_deformed_chain(
    family: AdiabaticFamily, rho_i: np.ndarray, T: int
) -> np.ndarray:
    """Apply the normalized deformed chain F(T/T)...F(1/T) to a state."""
    family.prepare([j / T for j in range(1, T + 1)])
    x = vec(rho_i)
    for j in range(1, T + 1):
        x = family.normalized(j / T) @ x
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
