"""Moment generating functions, large deviations, and CLT quantities.

Finite-T generating functions of the counted increment Delta_y (and of the
pair (Delta_y, Delta_a)) are products of deformed maps. As T grows,
(1/T) log E e^{alpha Delta_y} converges to
Lambda(alpha) = int_0^1 log lambda^(alpha)(s) ds with lambda^(alpha)(s) the
spectral radius of L^(alpha)(s); this module evaluates Lambda on cached
grids, its first two derivatives at zero in closed form, its Legendre
transform with the finite support window [nu_minus, nu_plus], the
fluctuation-symmetry defects, and the closed-form limits available in the
exactly stationary (obstruction-free) case.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    hermitian_eig,
    herm_exp,
    ordered_product,
    simpson,
    vec,
)
from .model import RISModel, kraus_families
from .fullstats import MeasurementSetup, ProtocolNodes, node_table, resolve_final_observable
from .spectral import growth_rates, peripheral_decompositions

DEFAULT_S_NODES = 201
DEFAULT_ALPHA_GRID = (-3.0, 2.0, 101)
SAFEGUARD_INTERVAL = (-50.0, 50.0)


# ---------------------------------------------------------------------------
# finite-T generating functions (product formulas)
# ---------------------------------------------------------------------------


def mgf_pair(
    model: RISModel,
    setup: MeasurementSetup,
    T: int,
    alpha1: complex | np.ndarray,
    alpha2: complex | np.ndarray,
    *,
    nodes: ProtocolNodes | None = None,
) -> complex | np.ndarray:
    """Joint E e^{alpha1 Delta_y + alpha2 Delta_a}, Delta_a = a_i - a_f.

    Tr( e^{-alpha2 A_f} L^(a1)-chain( sum_i e^{alpha2 a_i} pi_i rho_i pi_i ) ),
    with Y the model's counting observable; alpha2 = 0 gives
    E e^{alpha1 Delta_y}. Equal-length 1-d arrays alpha1, alpha2 give an
    array, one value per pair, all chains from one ``ordered_product`` call.
    """
    nodes = node_table(model, T, nodes)
    obs_f, _ = resolve_final_observable(model, setup, T, nodes=nodes)
    kernel = nodes.kernel[nodes.chain(T)]
    pairs = zip(np.atleast_1d(alpha1), np.atleast_1d(alpha2), strict=True)
    a1, a2 = np.array(list(pairs)).T
    chains = ordered_product(np.stack([kernel.deformed_matrix(a) for a in a1]))
    obs_i, a2 = setup.obs_i, a2[:, None, None]  # a2 against the outcome and vec axes
    pi_i, pi_f = np.stack(obs_i.projectors), np.stack(obs_f.projectors)
    init = (np.exp(a2 * obs_i.values[:, None]) * vec(pi_i @ setup.rho_i @ pi_i)).sum(1)
    final_t = (np.exp(-a2 * obs_f.values[:, None]) * vec(pi_f).conj()).sum(1)
    # Tr(final X) = vec(final^T) . vec(X), and final_t = vec(final^T)
    out = ((chains @ init[..., None])[..., 0] * final_t).sum(-1)
    return complex(out[0]) if np.ndim(alpha1) == 0 else out


# ---------------------------------------------------------------------------
# the limiting cumulant functional Lambda
# ---------------------------------------------------------------------------


class LambdaEvaluator:
    """Cached evaluator of Lambda(alpha) = int_0^1 log lambda^(alpha)(s) ds.

    The node kernels are built once; each alpha then costs one batched
    eigenvalue sweep over their kron-stacks. Quadrature is composite Simpson
    on an odd uniform grid.
    """

    def __init__(self, model: RISModel, n_nodes: int = DEFAULT_S_NODES):
        if n_nodes % 2 == 0:
            n_nodes += 1
        self.model = model
        self.s_grid = np.linspace(0.0, 1.0, n_nodes)
        self._fams = kraus_families(model, self.s_grid)
        self._cache: dict[float, float] = {}

    def lambda_nodes(self, alpha: float) -> np.ndarray:
        """lambda^(alpha)(s) on the protocol grid."""
        w = np.exp(float(alpha) * self._fams.dy)
        M = np.einsum("sn,snab->sab", w, self._fams.kron)
        ev = np.linalg.eigvals(M)
        return np.abs(ev).max(axis=1)

    def __call__(self, alpha: float) -> float:
        alpha = float(alpha)
        if alpha not in self._cache:
            self._cache[alpha] = float(
                simpson(np.log(self.lambda_nodes(alpha)), x=self.s_grid)
            )
        return self._cache[alpha]

    def derivative(self, alpha: float) -> float:
        h = 1e-5
        return (self(alpha + h) - self(alpha - h)) / (2 * h)

    def derivatives_at_zero(self) -> tuple[float, float]:
        """(Lambda'(0), Lambda''(0)) via the closed-form node derivatives.

        At each node, with invariant state rho of L(s):
        l1 = sum_n dy_n Tr(K_n rho K_n*), and
        l2 = sum_n dy_n^2 Tr(K_n rho K_n*) + 2 sum_n dy_n Tr(K_n eta K_n*)
        with eta the unique traceless solution of (Id - L) eta = rhs =
        sum_n dy_n K_n rho K_n* - l1 rho: the solution of the non-singular
        (Id - L + |rho><Id|) eta = rhs, one stacked solve over all nodes (a
        residual above 1e-10 raises ValueError naming s). Then
        Lambda'(0) = int l1 and Lambda''(0) = int (l2 - l1^2).

        The maps L(s) are the kernel's ``deformed_matrix(0)`` stack, and every
        rho comes from one ``peripheral_decompositions`` call, which raises
        SpectralError naming the first node whose map is not irreducible.
        """
        d = self.model.dim_sys
        diag = slice(None, None, d + 1)  # the trace of a column-stacked operator
        dy, kron = self._fams.dy, self._fams.kron
        maps = self._fams.deformed_matrix(0.0)
        rho = vec(peripheral_decompositions(maps).rho)[..., None]
        jumps = kron @ rho[:, None]  # vec(K_n rho K_n*) for every n
        weights = np.real(jumps[:, :, diag, 0].sum(axis=-1))
        l1s = np.einsum("sn,sn->s", dy, weights)
        rhs = np.einsum("sn,snxo->sxo", dy, jumps) - l1s[:, None, None] * rho
        A = np.eye(d * d) - maps
        eta = np.linalg.solve(A + rho * vec(np.eye(d)), rhs)
        resid = np.abs(A @ eta - rhs).max(axis=(1, 2))
        i = int(np.argmax(resid > 1e-10))
        if resid[i] > 1e-10:
            s = self.s_grid[i]
            raise ValueError(f"perturbation solve residual {resid[i]:.3e} at s={s}")
        eta_weights = np.real((kron @ eta[:, None])[:, :, diag, 0].sum(axis=-1))
        l2s = np.einsum("sn,sn->s", dy, dy * weights + 2 * eta_weights)
        d1 = float(simpson(l1s, x=self.s_grid))
        d2 = float(simpson(l2s - l1s**2, x=self.s_grid))
        return d1, d2

    def support_window(self) -> tuple[float, float]:
        """(nu_minus, nu_plus) = integrated extreme counting increments."""
        lo, hi = np.array([growth_rates(f.kraus, f.dy) for f in self._fams]).T
        return (
            float(simpson(lo, x=self.s_grid)),
            float(simpson(hi, x=self.s_grid)),
        )


def lambda_derivatives_at_zero(
    model: RISModel, n_nodes: int = DEFAULT_S_NODES
) -> tuple[float, float]:
    """(Lambda'(0), Lambda''(0)) on n_nodes nodes.

    See ``LambdaEvaluator.derivatives_at_zero``; an evaluator already built
    for the same grid gives them from its own kernels.
    """
    return LambdaEvaluator(model, n_nodes).derivatives_at_zero()


# ---------------------------------------------------------------------------
# Legendre transform and fluctuation symmetries
# ---------------------------------------------------------------------------


def legendre_transform(
    ev: LambdaEvaluator,
    x: float,
    *,
    window: tuple[float, float] | None = None,
) -> float:
    """Lambda*(x) = sup_alpha (alpha x - Lambda(alpha)).

    Returns +inf outside the support window [nu_minus, nu_plus]. Inside,
    the stationarity condition Lambda'(alpha) = x is solved by bisection on
    the safeguard interval; if the derivative does not bracket x there, the
    supremum over the interval endpoints is returned (a finite lower bound).
    """
    if window is None:
        window = ev.support_window()
    nu_lo, nu_hi = window
    edge = 1e-12 * (1.0 + abs(nu_lo) + abs(nu_hi))
    if x < nu_lo - edge or x > nu_hi + edge:
        return np.inf
    a_lo, a_hi = SAFEGUARD_INTERVAL
    d_lo = ev.derivative(a_lo)
    d_hi = ev.derivative(a_hi)
    if not (d_lo <= x <= d_hi):
        return max(a_lo * x - ev(a_lo), a_hi * x - ev(a_hi))
    while a_hi - a_lo > 1e-10 * (1.0 + abs(a_lo) + abs(a_hi)):
        mid = 0.5 * (a_lo + a_hi)
        if ev.derivative(mid) < x:
            a_lo = mid
        else:
            a_hi = mid
    a = 0.5 * (a_lo + a_hi)
    return float(a * x - ev(a))


def legendre_point(ev: LambdaEvaluator, alpha: float) -> tuple[float, float]:
    """(x, Lambda*(x)) at the slope x = Lambda'(alpha).

    Lambda is convex, so alpha itself maximises a*x - Lambda(a) and
    Lambda*(x) = alpha*x - Lambda(alpha): the parametric form of the
    Legendre transform, with no search for the maximiser.
    """
    x = ev.derivative(alpha)
    return x, float(alpha * x - ev(alpha))


def gc_symmetry_defect(ev: LambdaEvaluator) -> float:
    """max over DEFAULT_ALPHA_GRID of |Lambda(alpha) - Lambda(-1-alpha)|."""
    lo, hi, n = DEFAULT_ALPHA_GRID
    alpha_grid = np.linspace(lo, hi, int(n))
    vals = np.array([ev(a) for a in alpha_grid])
    refl = np.array([ev(-1.0 - a) for a in alpha_grid])
    return float(np.abs(vals - refl).max())


def rate_function_symmetry_defect(
    ev: LambdaEvaluator, n_points: int = 21
) -> float:
    """max over an interior grid of |Lambda*(x) - (Lambda*(-x) - x)|.

    This is the rate-function form of the Lambda(alpha) = Lambda(-1-alpha)
    symmetry: Lambda*(x) = -x + Lambda*(-x). The grid is x = Lambda'(alpha)
    for alpha uniform in [-2, 1], so both x and -x are reached by
    stationary points inside the safeguard interval. Lambda*(x) is read off
    its own maximiser alpha; Lambda*(-x) is searched for, because taking its
    maximiser -1 - alpha from the symmetry would assume what is tested.
    """
    window = ev.support_window()
    worst = 0.0
    for a in np.linspace(-2.0, 1.0, n_points):
        x, lhs = legendre_point(ev, a)
        rhs = -x + legendre_transform(ev, -x, window=window)
        worst = max(worst, abs(lhs - rhs))
    return worst


def clt_check(delta_y: np.ndarray, T: int, d1: float, d2: float) -> dict:
    """Compare standardized samples of Delta_y against Normal(0, Lambda''(0)).

    Returns the Kolmogorov-Smirnov distance D = max_i max(i/n - F(x_(i)),
    F(x_(i)) - (i-1)/n) over the sorted standardized samples x_(i), with F
    the Normal(0, d2) CDF (d2 > 0); the sample mean of Delta_y / T; and its
    standard error (NaN for a single sample).
    """
    if not d2 > 0:
        raise ValueError(f"the CLT variance must be positive, got d2={d2}")
    standardized = np.sort((np.asarray(delta_y) - T * d1) / np.sqrt(T))
    scale = math.sqrt(2.0 * d2)
    cdf = np.array([0.5 * math.erfc(-x / scale) for x in standardized.tolist()])
    n = cdf.size
    ranks = np.arange(n + 1) / n
    ks = max((ranks[1:] - cdf).max(), (cdf - ranks[:-1]).max())
    mean = float(np.mean(delta_y) / T)
    se = float(np.std(delta_y, ddof=1) / (T * np.sqrt(n))) if n > 1 else math.nan
    return {"ks_distance": float(ks), "mean_rate": mean, "mean_se": se}


# ---------------------------------------------------------------------------
# closed forms in the exactly stationary (obstruction-free) case
# ---------------------------------------------------------------------------


def stationary_pair_mgf_limit(
    rho_inv_0: np.ndarray,
    rho_inv_1: np.ndarray,
    rho_i: np.ndarray,
    alpha1: complex,
    alpha2: complex,
) -> complex:
    """Limiting joint MGF of (Delta_y, Delta_a) when the obstruction vanishes.

    Tr( rho_inv(0)^{-alpha1} rho_i^{1-alpha2} ) *
    Tr( rho_inv(1)^{1+alpha1+alpha2} ).
    """
    A = _herm_cpow(rho_inv_0, -alpha1) @ _herm_cpow(rho_i, 1.0 - alpha2)
    B = _herm_cpow(rho_inv_1, 1.0 + alpha1 + alpha2)
    return complex(np.trace(A) * np.trace(B))


def _herm_cpow(H: np.ndarray, p: complex) -> np.ndarray:
    w, V = hermitian_eig(H)
    if w.min() <= 0:
        raise ValueError("complex powers require a faithful (PD) state")
    return (V * np.exp(complex(p) * np.log(w))) @ V.conj().T


def stationary_varsigma_limit_law(
    rho_inv_0: np.ndarray, rho_i: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and weights of the limiting law of varsigma (obstruction-free).

    The limit MGF is Tr(rho_inv(0)^{-alpha} rho_i^{1+alpha}); with
    eigenpairs (t_j, v_j) of rho_inv(0) and (r_k, w_k) of rho_i, the law
    has atoms log r_k - log t_j with weights |<v_j|w_k>|^2 r_k, and its
    mean is the relative entropy S(rho_i | rho_inv(0)).
    """
    t, V = hermitian_eig(rho_inv_0)
    r, W = hermitian_eig(rho_i)
    atoms, weights = [], []
    ov = np.abs(V.conj().T @ W) ** 2
    for j in range(t.size):
        for k in range(r.size):
            atoms.append(np.log(r[k]) - np.log(t[j]))
            weights.append(ov[j, k] * r[k])
    return np.asarray(atoms), np.asarray(weights)


def stationary_log_mgf_theta(
    k_sys: np.ndarray, beta0: float, beta1: float, alpha: float
) -> float:
    """-theta^(alpha) = log of the accumulated normalization (obstruction-free).

    log of (Tr e^{-beta0 k})^{1+a} Tr e^{-(1+a) beta1 k}
    / [ (Tr e^{-beta1 k})^{1+a} Tr e^{-(1+a) beta0 k} ].
    """

    def z(b):
        return np.real(np.trace(herm_exp(k_sys, -b)))

    a = float(alpha)
    return float(
        (1 + a) * np.log(z(beta0))
        + np.log(z((1 + a) * beta1))
        - (1 + a) * np.log(z(beta1))
        - np.log(z((1 + a) * beta0))
    )
