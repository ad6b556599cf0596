"""Independent cross-check routes for the per-node maps.

The library derives every map of a protocol node from one kernel, built
for a whole node set at once by ``rislab.model.kraus_families``.
``kraus_family`` here builds one node's kernel alone, as the library did
before the stacked build, and must agree with it bitwise. The other routes
build the same maps from their defining expressions instead: a
per-transition Kraus contraction and partial traces of the joint evolution
applied to the matrix units. They are slow and used only as oracles by the
tests. ``forward_prob``, ``backward_prob`` and ``balance_rhs`` evaluate one
record at a time what the library computes for a whole enumerated measure,
reading the chain of each (model, setup, T) from a cache filled on its
first record; ``records`` lists the measure's records in their tuple form.
"""

from __future__ import annotations

import numpy as np

from rislab.fullstats import (
    MeasurementSetup,
    SpectralObservable,
    StepOperators,
    TrajectoryMeasure,
    _all_steps,
    balance_applicable,
    resolve_final_observable,
)
from rislab.linalg import (
    SuperOperator,
    as_complex,
    assert_hermitian,
    herm_exp,
    herm_power,
    hermitian_eig,
    kron_stack,
    outcome_groups,
    partial_trace_env,
    tensor_product,
    unvec,
    vec,
)
from rislab.model import (
    KrausFamily,
    RISModel,
    default_counting_observable,
    joint_unitary,
    probe_state,
)


def kraus_family(
    model: RISModel, s: float, Y: np.ndarray | None = None
) -> KrausFamily:
    """Kraus operators K_ij = (Id x <psi_j|) U (Id x xi^{1/2} |psi_i>).

    psi is the eigenbasis of Y and xi the probe Gibbs state; the reduced
    map is X -> sum_ij K_ij X K_ij*.
    """
    dS, dE = model.dim_sys, model.dim_env
    if Y is None:
        Y = default_counting_observable(model, s)
    y, psi = hermitian_eig(Y)
    xi = probe_state(model, s)
    xi_y = psi.conj().T @ xi @ psi
    xi_y_half = psi.conj().T @ herm_power(xi, 0.5) @ psi
    U4 = joint_unitary(model, s).reshape(dS, dE, dS, dE)
    A = np.einsum("eb,menf,fa->bamn", psi.conj(), U4, psi)
    K = np.einsum("ca,bcmn->abmn", xi_y_half, A).reshape(dE * dE, dS, dS)
    return KrausFamily(
        kraus=tuple(K),
        dy=(y[None, :] - y[:, None]).reshape(-1),
        y_eigenvalues=y,
        basis=psi,
        transitions=A,
        xi_y=xi_y,
        groups=outcome_groups(y).astype(float),
        kron=kron_stack(K),
    )


def kraus_operators(
    model: RISModel, s: float, Y: np.ndarray | None = None
) -> list[np.ndarray]:
    """K_ij = (Id x <psi_j|) U (Id x xi^{1/2} |psi_i>), one contraction each.

    Ordered as the kernel's stack: input index i outer, output index j inner.
    """
    dS, dE = model.dim_sys, model.dim_env
    if Y is None:
        Y = default_counting_observable(model, s)
    _, psi = hermitian_eig(Y)
    xi_half = herm_power(probe_state(model, s), 0.5)
    U4 = joint_unitary(model, s).reshape(dS, dE, dS, dE)
    phi = xi_half @ psi  # columns: xi^{1/2} psi_i
    return [
        np.einsum("e,menf,f->mn", psi[:, j].conj(), U4, phi[:, i])
        for i in range(dE)
        for j in range(dE)
    ]


def deformed_map_bare(
    model: RISModel, s: float, alpha: complex, Y: np.ndarray | None = None
) -> SuperOperator:
    """The deformed map from its defining expression (cross-check route).

    X -> Tr_env( e^{alpha Y} U (X x xi) e^{-alpha Y} U* ), evaluated by
    applying the map to the matrix units. Coincides with the weighted-Kraus
    route whenever Y commutes with the probe state.
    """
    dS, dE = model.dim_sys, model.dim_env
    if Y is None:
        Y = default_counting_observable(model, s)
    U = joint_unitary(model, s)
    xi = probe_state(model, s)
    ep = herm_exp(Y, complex(alpha))
    em = herm_exp(Y, -complex(alpha))
    A = tensor_product(np.eye(dS), ep) @ U
    B = tensor_product(np.eye(dS), em) @ U.conj().T
    mat = np.zeros((dS * dS, dS * dS), dtype=complex)
    for k in range(dS):
        for l in range(dS):
            E = np.zeros((dS, dS), dtype=complex)
            E[k, l] = 1.0
            out = partial_trace_env(A @ tensor_product(E, xi) @ B, dS, dE)
            mat[:, k + dS * l] = vec(out)
    return SuperOperator(dim=dS, matrix=mat)


def deformed_adjoint_map(
    model: RISModel, s: float, alpha: complex, Y: np.ndarray | None = None
) -> SuperOperator:
    """Adjoint of the deformed map from its closed-form expression.

    X -> Tr_env( e^{-(conj(alpha) Y + beta h_env)} U* (X x xi)
                 e^{conj(alpha) Y + beta h_env} U ).
    """
    dS, dE = model.dim_sys, model.dim_env
    if Y is None:
        Y = default_counting_observable(model, s)
    U = joint_unitary(model, s)
    xi = probe_state(model, s)
    G = np.conjugate(complex(alpha)) * as_complex(Y) + float(model.beta(s)) * as_complex(
        model.h_env(s)
    )
    # G is Hermitian only for real alpha; use the general exponential
    from scipy.linalg import expm

    ep = expm(G)
    em = expm(-G)
    A = tensor_product(np.eye(dS), em) @ U.conj().T
    B = tensor_product(np.eye(dS), ep) @ U
    mat = np.zeros((dS * dS, dS * dS), dtype=complex)
    for k in range(dS):
        for l in range(dS):
            E = np.zeros((dS, dS), dtype=complex)
            E[k, l] = 1.0
            out = partial_trace_env(A @ tensor_product(E, xi) @ B, dS, dE)
            mat[:, k + dS * l] = vec(out)
    return SuperOperator(dim=dS, matrix=mat)


def step_operators(
    model: RISModel, s: float, Y: np.ndarray | None = None
) -> StepOperators:
    dS, dE = model.dim_sys, model.dim_env
    if Y is None:
        Y = default_counting_observable(model, s)
    obs = SpectralObservable.from_matrix(Y)
    xi = probe_state(model, s)
    U = joint_unitary(model, s)
    hE = assert_hermitian(model.h_env(s))
    n = obs.n_outcomes
    d2 = dS * dS
    fwd = np.zeros((n, n, d2, d2), dtype=complex)
    bwd = np.zeros((n, n, d2, d2), dtype=complex)
    eye = np.eye(dS)
    units = []
    for l in range(dS):
        for k in range(dS):
            E = np.zeros((dS, dS), dtype=complex)
            E[k, l] = 1.0
            units.append((k + dS * l, E))
    for i, Pi in enumerate(obs.projectors):
        xi_i = Pi @ xi @ Pi
        for j, Pj in enumerate(obs.projectors):
            IPj = tensor_product(eye, Pj)
            xi_j = Pj @ xi @ Pj
            IPi = tensor_product(eye, Pi)
            for col, E in units:
                out_f = partial_trace_env(
                    IPj @ U @ tensor_product(E, xi_i) @ U.conj().T @ IPj, dS, dE
                )
                fwd[i, j, :, col] = vec(out_f)
                out_b = partial_trace_env(
                    U.conj().T @ tensor_product(E, xi_j) @ U @ IPi, dS, dE
                )
                bwd[i, j, :, col] = vec(out_b)
    energies = np.array(
        [np.trace(hE @ P).real / np.trace(P).real for P in obs.projectors]
    )
    return StepOperators(
        y_values=obs.values,
        y_dims=obs.dims(),
        energies=energies,
        beta=float(model.beta(s)),
        forward=fwd,
        backward=bwd,
    )


def records(measure: TrajectoryMeasure, n_out: int) -> list[tuple]:
    """The records (ai, ((i_1, j_1), ..., (i_T, j_T)), af) of ``measure``, in order."""
    return [
        (int(ai), tuple(divmod(int(c), n_out) for c in probes), int(af))
        for ai, probes, af in zip(
            measure.i_index, measure.probe_records, measure.f_index
        )
    ]


# (id(model), id(setup), T) -> (model, setup, chain data). The entry holds
# the model and the setup, so neither id can be reused while it is cached.
_CHAINS: dict = {}


def _chain(model: RISModel, setup: MeasurementSetup, T: int) -> tuple:
    """(obs_f, rho_f, steps, applicable) of one protocol, built once.

    The per-record oracles below read the same final observable, evolved
    state and step maps for every record of a (model, setup, T); models and
    setups are frozen, so the chain is built on the first record only.
    """
    key = (id(model), id(setup), T)
    if key not in _CHAINS:
        obs_f, rho_f = resolve_final_observable(model, setup, T)
        data = (obs_f, rho_f, _all_steps(model, T), balance_applicable(model, setup, T))
        _CHAINS[key] = (model, setup, data)
    return _CHAINS[key][2]


def balance_rhs(
    model: RISModel, setup: MeasurementSetup, record, T: int
) -> float | None:
    """Closed form of log(pF/pB) for one record, or None when not applicable.

    log[ Tr(pi_i rho_i) dim(pi_f) / (Tr(pi_f rho_f) dim(pi_i)) ]
    + sum_k beta_k (E_{j_k} - E_{i_k}), with E_i the mean probe energy on
    the i-th outcome eigenspace.
    """
    obs_f, rho_f, steps, applicable = _chain(model, setup, T)
    if not applicable:
        return None
    ai, probes, af = record
    pi_i = setup.obs_i.projectors[ai]
    pi_f = obs_f.projectors[af]
    wi = np.trace(pi_i @ setup.rho_i).real
    wf = np.trace(pi_f @ rho_f).real
    if wi <= 0 or wf <= 0:
        return None
    out = np.log(wi / wf) + np.log(
        np.trace(pi_f).real / np.trace(pi_i).real
    )
    for step, (i, j) in zip(steps, probes):
        out += step.beta * (step.energies[j] - step.energies[i])
    return float(out)


def forward_prob(
    model: RISModel,
    setup: MeasurementSetup,
    record,
    T: int,
) -> float:
    """Probability of one full forward record (ai_idx, [(i_k, j_k)], af_idx)."""
    ai, probes, af = record
    obs_f, _, steps, _ = _chain(model, setup, T)
    pi_i = setup.obs_i.projectors[ai]
    x = vec(pi_i @ setup.rho_i @ pi_i)
    for step, (i, j) in zip(steps, probes):
        x = step.forward[i, j] @ x
    d = model.dim_sys
    return float(np.real(np.trace(obs_f.projectors[af] @ unvec(x, d))))


def backward_prob(
    model: RISModel,
    setup: MeasurementSetup,
    record,
    T: int,
) -> float:
    """Probability of one record under the time-reversed protocol."""
    ai, probes, af = record
    obs_f, rho_f, steps, _ = _chain(model, setup, T)
    pi_f = obs_f.projectors[af]
    x = vec(pi_f @ rho_f @ pi_f)
    for step, (i, j) in zip(reversed(steps), reversed(probes)):
        x = step.backward[i, j] @ x
    d = model.dim_sys
    return float(np.real(np.trace(setup.obs_i.projectors[ai] @ unvec(x, d))))
