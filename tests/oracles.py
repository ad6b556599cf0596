"""Independent cross-check routes for the per-node maps.

The library derives every map of a protocol node from one kernel, built
for a whole node set at once by ``rislab.model.kraus_families``.
``kraus_family`` here builds one node's kernel alone, with the library's
arithmetic, and must agree with it bitwise; ``kraus_family_gibbs`` builds it
from the probe's Gibbs state and its square root, each decomposed on its own,
and agrees with it to round-off.
``peripheral_decomposition`` likewise decomposes one map alone, as the
library did before the stacked ``rislab.spectral.peripheral_decompositions``.
The other routes build the same maps from their defining expressions
instead: a per-transition Kraus contraction and partial traces of the joint
evolution applied to the matrix units. They are slow and used only as
oracles by the tests. ``forward_prob``, ``backward_prob`` and ``balance_rhs`` evaluate one
record at a time what the library computes for a whole enumerated measure,
reading the chain of each (model, setup, T) from a cache filled on its
first record; ``records`` lists the measure's records in their tuple form.
``enumerate_measure_by_index_table`` labels the enumerated records from one
index table of their grid. ``sample_trajectories_reference`` is the
sampler's one-stream-per-trajectory, all-maps-per-step route in complex vec
coordinates; ``write_rows_reference``
writes the sampler's and the measure's CSV files one ``csv.writer`` row at
a time. ``intertwiner``, ``theta_integral``,
``product_decomposition_residual`` and ``gap_bound`` read an
``AdiabaticFamily`` one node at a time, building each generator from the
per-node projector differences, as the library did before it read node
stacks, and walk each chain one step at a time. ``intertwiner`` returns W at
every node; the library returns W(1) as the ordered product of the RK4 step
matrices, so it is compared on node prefixes. Where the library multiplies a
chain as an ordered product they agree to round-off, elsewhere bitwise.
``stationary_obstruction``,
``obstruction_norm``, ``commuting_effective_hamiltonian`` and
``adiabatic_state`` are diagnostics of the structural degenerate case and
the physical (alpha = 0) adiabatic state that only the tests evaluate.
``step_balance`` is Landauer's balance of one interaction step from the
joint evolution U (rho x xi) U* and its partial traces, and
``step_productions`` walks a chain with it one step at a time; the library
reads the chain's total sigma_tot from the node table's kernel instead.
"""

from __future__ import annotations

import csv
from types import SimpleNamespace

import numpy as np

from scipy.integrate import simpson

from rislab import adiabatic
from rislab.adiabatic import DERIV_STEP, AdiabaticFamily
from rislab.fullstats import (
    MeasurementSetup,
    ProtocolNodes,
    SampledTrajectories,
    SpectralObservable,
    TrajectoryMeasure,
    balance_applicable,
    resolve_final_observable,
    von_neumann_entropy,
)
from rislab.linalg import (
    LinalgError,
    SuperOperator,
    as_complex,
    assert_hermitian,
    general_eig,
    herm_exp,
    herm_log,
    herm_power,
    hermitian_eig,
    kron_stack,
    tensor_product,
    unvec,
    vec,
)
from rislab.model import (
    KrausFamily,
    RISModel,
    gibbs_state,
    joint_unitary,
    reduced_map,
)
from rislab.spectral import (
    FAITHFUL_TOL,
    PERIPHERAL_REL_TOL,
    RESIDUAL_TOL,
    PeripheralDecomposition,
    SpectralError,
    invariant_state,
)


def probe_state(model: RISModel, s: float) -> np.ndarray:
    """The probe's Gibbs state xi(s) = e^{-beta(s) h_env(s)} / Z(s)."""
    return gibbs_state(model.h_env(s), model.beta(s))


def partial_trace_env(M: np.ndarray, dS: int, dE: int) -> np.ndarray:
    """Trace out the second (environment) factor of an operator on H_S x H_E."""
    M = as_complex(M)
    if M.shape != (dS * dE, dS * dE):
        raise LinalgError(f"expected shape {(dS * dE,) * 2}, got {M.shape}")
    return np.einsum("ikjk->ij", M.reshape(dS, dE, dS, dE))


def partial_trace_sys(M: np.ndarray, dS: int, dE: int) -> np.ndarray:
    """Trace out the first (system) factor of an operator on H_S x H_E."""
    M = as_complex(M)
    if M.shape != (dS * dE, dS * dE):
        raise LinalgError(f"expected shape {(dS * dE,) * 2}, got {M.shape}")
    return np.einsum("kikj->ij", M.reshape(dS, dE, dS, dE))


def _counting(model: RISModel, s: float) -> np.ndarray:
    """The counting observable Y(s) = beta(s) * h_env(s)."""
    return float(model.beta(s)) * assert_hermitian(model.h_env(s))


def kraus_family(model: RISModel, s: float) -> KrausFamily:
    """Kraus operators K_ab = xi_a^{1/2} (Id x <psi_b|) U (Id x |psi_a>).

    psi is the eigenbasis of Y and xi_a = e^{-y_a} / Z the probe Gibbs
    state's weight on psi_a, read off Y's eigenvalues with the library's
    arithmetic; the reduced map is X -> sum_ab K_ab X K_ab*.
    """
    dS, dE = model.dim_sys, model.dim_env
    y, psi = hermitian_eig(_counting(model, s))
    g = np.exp(-y).astype(complex)
    half = np.power(g / g.real.sum(), 0.5)
    U4 = joint_unitary(model, s).reshape(dS, dE, dS, dE)
    A = np.einsum("eb,menf,fa->bamn", psi.conj(), U4, psi)
    K = (half[None, :, None, None] * A).swapaxes(0, 1).reshape(dE * dE, dS, dS)
    return _family(K, y)


def kraus_family_gibbs(model: RISModel, s: float) -> KrausFamily:
    """The same kernel with xi^{1/2} = herm_power(gibbs_state(h_env, beta), 1/2)
    taken in h_env's own eigenbasis and rotated into psi's, as the library
    built it before reading xi's weights off Y's eigenvalues."""
    dS, dE = model.dim_sys, model.dim_env
    y, psi = hermitian_eig(_counting(model, s))
    xi_y_half = psi.conj().T @ herm_power(probe_state(model, s), 0.5) @ psi
    U4 = joint_unitary(model, s).reshape(dS, dE, dS, dE)
    A = np.einsum("eb,menf,fa->bamn", psi.conj(), U4, psi)
    K = np.einsum("ca,bcmn->abmn", xi_y_half, A).reshape(dE * dE, dS, dS)
    return _family(K, y)


def _family(K: np.ndarray, y: np.ndarray) -> KrausFamily:
    return KrausFamily(
        kraus=K,
        dy=(y[None, :] - y[:, None]).reshape(-1),
        y_eigenvalues=y,
        kron=kron_stack(K),
    )


def kraus_operators(model: RISModel, s: float) -> list[np.ndarray]:
    """K_ij = (Id x <psi_j|) U (Id x xi^{1/2} |psi_i>), one contraction each.

    Ordered as the kernel's stack: input index i outer, output index j inner.
    """
    dS, dE = model.dim_sys, model.dim_env
    Y = _counting(model, s)
    _, psi = hermitian_eig(Y)
    xi_half = herm_power(probe_state(model, s), 0.5)
    U4 = joint_unitary(model, s).reshape(dS, dE, dS, dE)
    phi = xi_half @ psi  # columns: xi^{1/2} psi_i
    return [
        np.einsum("e,menf,f->mn", psi[:, j].conj(), U4, phi[:, i])
        for i in range(dE)
        for j in range(dE)
    ]


def deformed_map_bare(model: RISModel, s: float, alpha: complex) -> SuperOperator:
    """The deformed map from its defining expression (cross-check route).

    X -> Tr_env( e^{alpha Y} U (X x xi) e^{-alpha Y} U* ), evaluated by
    applying the map to the matrix units. Coincides with the weighted-Kraus
    route whenever Y commutes with the probe state.
    """
    dS, dE = model.dim_sys, model.dim_env
    Y = _counting(model, s)
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


def deformed_adjoint_map(model: RISModel, s: float, alpha: complex) -> SuperOperator:
    """Adjoint of the deformed map from its closed-form expression.

    X -> Tr_env( e^{-(conj(alpha) Y + beta h_env)} U* (X x xi)
                 e^{conj(alpha) Y + beta h_env} U ).
    """
    dS, dE = model.dim_sys, model.dim_env
    Y = _counting(model, s)
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


def step_operators(model: RISModel, s: float) -> SimpleNamespace:
    """y_values, forward and backward step maps of one node, by partial traces.

    The maps of the outcome pairs (i, j) are applied to the matrix units;
    the library sums them over the node's kernel instead.
    """
    dS, dE = model.dim_sys, model.dim_env
    Y = _counting(model, s)
    obs = SpectralObservable.from_matrix(Y)
    xi = probe_state(model, s)
    U = joint_unitary(model, s)
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
    return SimpleNamespace(y_values=obs.values, forward=fwd, backward=bwd)


def _traces(P: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re Tr(P @ unvec(x)): the product of every pair, then its trace."""
    d = P.shape[-1]
    X = x.reshape(x.shape[:-1] + (d, d)).swapaxes(-1, -2)
    return np.real(np.trace(P @ X, axis1=-2, axis2=-1))


def enumerate_measure_by_index_table(
    model: RISModel, setup: MeasurementSetup, T: int
) -> TrajectoryMeasure:
    """The enumeration with the records' labels read from one int64
    ``np.indices`` table of the (a_i, pair_1, ..., pair_T, a_f) grid, and
    both state stacks alive until the end, as the library built it before it
    broadcast each step along its axis of the grid."""
    nodes = ProtocolNodes(model, [T])
    obs_f, rho_f = resolve_final_observable(model, setup, T, nodes=nodes)
    steps, idx = nodes.steps, nodes.chain(T)
    n_out = steps.y_values.shape[-1]
    n_i, n_f = setup.obs_i.n_outcomes, obs_f.n_outcomes
    d2 = model.dim_sys**2
    pi_i, pi_f = np.stack(setup.obs_i.projectors), np.stack(obs_f.projectors)
    fwd = np.stack([vec(P @ setup.rho_i @ P) for P in pi_i])
    for k in idx:
        maps = steps.forward[k].reshape(-1, d2, d2)
        fwd = (maps @ fwd[:, None, :, None]).reshape(-1, d2)
    bwd = np.stack([vec(P @ rho_f @ P) for P in pi_f])[None]
    for k in idx[::-1]:
        maps = steps.backward[k].reshape(-1, 1, 1, d2, d2)
        bwd = (maps @ bwd[None, ..., None]).reshape(-1, n_f, d2)
    p_forward = _traces(pi_f, fwd[:, None]).reshape(-1)
    p_backward = _traces(pi_i[:, None, None], bwd).reshape(-1)
    index = np.indices((n_i,) + (n_out * n_out,) * T + (n_f,)).reshape(T + 2, -1)
    i_index, f_index = index[0], index[-1]
    probe_records = index[1:-1].T.astype(np.min_scalar_type(n_out * n_out - 1))
    delta_y = np.zeros(i_index.size)
    for y, pairs in zip(steps.y_values[idx], index[1:-1]):
        i, j = np.divmod(pairs, n_out)
        delta_y += y[j] - y[i]
    a_i = setup.obs_i.values[i_index]
    a_f = obs_f.values[f_index]
    return TrajectoryMeasure(
        i_index=i_index,
        probe_records=probe_records,
        f_index=f_index,
        a_i=a_i,
        a_f=a_f,
        delta_a=a_i - a_f,
        delta_y=delta_y,
        p_forward=np.maximum(p_forward, 0.0),
        p_backward=np.maximum(p_backward, 0.0),
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
    ``steps`` is the step stack of a table holding the one chain of length
    T, so its node k - 1 is step k.
    """
    key = (id(model), id(setup), T)
    if key not in _CHAINS:
        nodes = ProtocolNodes(model, [T])
        obs_f, rho_f = resolve_final_observable(model, setup, T, nodes=nodes)
        applicable = balance_applicable(model, setup, T, nodes=nodes)
        data = (obs_f, rho_f, nodes.steps, applicable)
        _CHAINS[key] = (model, setup, data)
    return _CHAINS[key][2]


def balance_rhs(
    model: RISModel, setup: MeasurementSetup, record, T: int
) -> float | None:
    """Closed form of log(pF/pB) for one record, or None when not applicable.

    log[ Tr(pi_i rho_i) dim(pi_f) / (Tr(pi_f rho_f) dim(pi_i)) ]
    + sum_k beta_k (E_{j_k} - E_{i_k}), with E_i the mean probe energy on
    the i-th outcome eigenspace, read from beta(k/T) and h_env(k/T) of the
    model itself.
    """
    obs_f, rho_f, _, applicable = _chain(model, setup, T)
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
    for k, (i, j) in enumerate(probes, start=1):
        beta, hE = float(model.beta(k / T)), assert_hermitian(model.h_env(k / T))
        P = SpectralObservable.from_matrix(beta * hE).projectors
        energy = [np.trace(hE @ p).real / np.trace(p).real for p in P]
        out += beta * (energy[j] - energy[i])
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
    for k, (i, j) in enumerate(probes):
        x = steps.forward[k, i, j] @ x
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
    for k, (i, j) in reversed(list(enumerate(probes))):
        x = steps.backward[k, i, j] @ x
    d = model.dim_sys
    return float(np.real(np.trace(setup.obs_i.projectors[ai] @ unvec(x, d))))


def sample_trajectories_reference(
    model: RISModel, setup: MeasurementSetup, T: int, n: int, seed: int
) -> SampledTrajectories:
    """The sampler as the library ran it before its array passes.

    Every trajectory builds its own Philox stream keyed by (seed, t), and
    each step applies all n_out^2 conditioned maps to every state, reading
    the outcome probabilities off the traces of the results. Only the
    sampled outcomes leave this route, so its records must equal the
    library's bit for bit.
    """
    nodes = ProtocolNodes(model, [T])
    obs_f, _ = resolve_final_observable(model, setup, T, nodes=nodes)
    steps, idx = nodes.steps, nodes.chain(T)
    n_out = steps.y_values.shape[-1]
    d = model.dim_sys

    uniforms = np.empty((n, T + 2))
    for t in range(n):
        gen = np.random.Generator(np.random.Philox(key=(seed << 64) + t))
        uniforms[t] = gen.random(T + 2)

    pi_list = setup.obs_i.projectors
    q = np.array([np.trace(P @ setup.rho_i).real for P in pi_list])
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    ai_idx = (uniforms[:, 0][:, None] > np.cumsum(q)[None, :]).sum(axis=1)
    states = np.empty((n, d * d), dtype=complex)
    for a in range(len(pi_list)):
        mask = ai_idx == a
        if mask.any():
            post = pi_list[a] @ setup.rho_i @ pi_list[a]
            states[mask] = vec(post / np.trace(post).real)

    trace_idx = np.arange(0, d * d, d + 1)
    delta_y = np.zeros(n)
    probe_records = np.empty((n, T), dtype=np.int64)
    for k, node in enumerate(idx):
        mats = steps.forward[node].reshape(n_out * n_out, d * d, d * d)
        applied = np.einsum("oab,nb->noa", mats, states)
        probs = np.real(applied[:, :, trace_idx].sum(axis=2))
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        u = uniforms[:, 1 + k]
        choice = (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
        choice = np.minimum(choice, n_out * n_out - 1)
        picked = applied[np.arange(n), choice]
        norm = np.real(picked[:, trace_idx].sum(axis=1))
        states = picked / norm[:, None]
        i_idx, j_idx = np.divmod(choice, n_out)
        delta_y += steps.y_values[node, j_idx] - steps.y_values[node, i_idx]
        probe_records[:, k] = choice

    pf_mats = np.stack([vec(P.T) for P in obs_f.projectors])
    probs_f = np.real(states @ pf_mats.T)
    probs_f = np.clip(probs_f, 0.0, None)
    probs_f /= probs_f.sum(axis=1, keepdims=True)
    u = uniforms[:, T + 1]
    af_idx = (u[:, None] > np.cumsum(probs_f, axis=1)).sum(axis=1)
    af_idx = np.minimum(af_idx, obs_f.n_outcomes - 1)

    a_i = setup.obs_i.values[ai_idx]
    a_f = obs_f.values[af_idx]
    delta_a = a_i - a_f
    varsigma = -delta_a + delta_y if setup.entropic else np.full(n, np.nan)
    return SampledTrajectories(
        a_i=a_i,
        a_f=a_f,
        delta_a=delta_a,
        delta_y=delta_y,
        varsigma=varsigma,
        probe_records=probe_records,
    )


def write_rows_reference(path, data, fields: tuple[str, ...]) -> None:
    """The library's CSV layout, written row by row through ``csv.writer``."""
    columns = [getattr(data, f).tolist() for f in fields]
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trajectory_id", *fields])
        for t, row in enumerate(zip(*columns)):
            writer.writerow([t, *map(repr, row)])


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


def _eigenvector(M, w, Vr, k):
    """Column k of Vr or, where its residual is above 1e-12 of M's scale, the
    right singular vector of M - w_k at its smallest singular value, in the
    column's phase."""
    v = Vr[:, k]
    if np.abs(M @ v - w[k] * v).max() <= 1e-12 * np.abs(M).max():
        return v
    x = np.linalg.svd(M - w[k] * np.eye(len(M)))[2][-1].conj()
    p = x.conj() @ v
    return x * (p / abs(p))


def peripheral_decomposition(L: SuperOperator) -> PeripheralDecomposition:
    """Full peripheral decomposition of one irreducible CP map, on its own.

    One ``general_eig`` gives the right and left eigenvectors of the same
    Schur form; every check runs on this map alone.
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
    rho = _phase_fixed_psd(unvec(_eigenvector(L.matrix, w, Vr, k0), d))
    rho = rho / np.trace(rho).real
    iota = _phase_fixed_psd(unvec(Vl[:, k0], d))
    iota = iota / np.trace(iota @ rho).real

    if z > 1:
        if np.linalg.eigvalsh(rho).min() < FAITHFUL_TOL:
            raise SpectralError("invariant state not faithful; map not irreducible")
        k1 = idx[list(ms).index(1)]
        X = unvec(_eigenvector(L.matrix, w, Vr, k1), d)
        u = herm_power(rho, -1.0) @ X
        u *= np.sqrt(d) / np.linalg.norm(u)
        uz = np.linalg.matrix_power(u, z)
        c = np.trace(uz) / d
        u = u / c ** (1.0 / z)
        wu = np.linalg.eigvals(u)
        mu = np.round(np.angle(wu) * z / (2 * np.pi)).astype(int) % z
        if np.abs(wu - np.exp(2j * np.pi * mu / z)).max() > 1e-6:
            raise SpectralError("cycle operator eigenvalues not near roots of unity")
        # u's eigenspaces as those of the Hermitian part of e^{i phi} u, whose
        # eigenvalues cos(2 pi m / z + phi) are distinct for phi = pi / (2z),
        # and for phi = 0 at z = 2, where the exact u is Hermitian. eigh's
        # eigenspaces are orthogonal; eig's only as far as u is normal, that
        # is, as far as the map's eigenvector at lambda theta is accurate.
        phi = 0.0 if z == 2 else np.pi / (2 * z)
        wh, Vh = np.linalg.eigh((np.exp(1j * phi) * u + np.exp(-1j * phi) * u.conj().T) / 2)
        levels = np.cos(2 * np.pi * np.arange(z) / z + phi)
        label = np.abs(wh[:, None] - levels).argmin(axis=1)
        if sorted(label) != sorted(mu):
            raise SpectralError("cycle operator eigenspaces do not match its eigenvalues")
        Vu = np.concatenate([Vh[:, label == m] for m in range(z)], axis=1)
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
        peripheral_projector=sum(spectral_projectors),
    )


# ---------------------------------------------------------------------------
# the adiabatic layer, one node at a time
# ---------------------------------------------------------------------------


def normalized(family: AdiabaticFamily, s: float) -> tuple[np.ndarray, np.ndarray]:
    """F(s) = L^(alpha)(s) / lambda^(alpha)(s) and Q(s) = Id - sum_m P^m(s).

    The map is rebuilt from a kernel of node s alone, through the kernel
    builder the adiabatic module reads.
    """
    dec = family.decomposition(s)
    M = adiabatic.kraus_families(family.model, [s]).deformed_matrix(family.alpha)[0]
    F = M / dec.spectral_radius
    return F, np.eye(family.dim**2, dtype=complex) - dec.peripheral_projector


def _neighbours(s: float) -> tuple[float, float]:
    return max(s - DERIV_STEP, 0.0), min(s + DERIV_STEP, 1.0)


def _with_neighbours(centres) -> list[float]:
    return [t for s in centres for t in (s, *_neighbours(s))]


def generator(family: AdiabaticFamily, s: float) -> np.ndarray:
    """A(s) = sum_m dP^m/ds @ P^m, each dP^m/ds a centred difference."""
    lo, hi = _neighbours(s)
    dec_lo, dec_hi = family.decomposition(lo), family.decomposition(hi)
    dPs = [
        (Ph - Pl) / (hi - lo)
        for Ph, Pl in zip(dec_hi.spectral_projectors, dec_lo.spectral_projectors)
    ]
    A = np.zeros((family.dim**2,) * 2, dtype=complex)
    for dP, P in zip(dPs, family.decomposition(s).spectral_projectors):
        A += dP @ P
    return A


def intertwiner(family: AdiabaticFamily, s_nodes) -> np.ndarray:
    """RK4 for W' = A(s) W, W(0) = Id, one generator node at a time."""
    s_nodes = np.asarray(s_nodes, dtype=float)
    steps = list(zip(s_nodes[:-1], s_nodes[1:]))
    family.prepare(
        _with_neighbours([t for a, b in steps for t in (a, a + (b - a) / 2, b)])
    )
    W = np.eye(family.dim**2, dtype=complex)
    out = [W.copy()]
    A4 = generator(family, s_nodes[0])
    for a, b in steps:
        h = b - a
        A1 = A4
        A2 = generator(family, a + h / 2)
        A4 = generator(family, b)
        k1 = A1 @ W
        k2 = A2 @ (W + h / 2 * k1)
        k3 = A2 @ (W + h / 2 * k2)
        k4 = A4 @ (W + h * k3)
        W = W + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(W.copy())
    return np.stack(out)


def theta_integral(family: AdiabaticFamily, *, n_nodes: int = 201) -> complex:
    """Simpson's rule over Tr(iota d rho/ds), one node at a time."""
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


def product_decomposition_residual(family: AdiabaticFamily, T: int) -> float:
    """The product-decomposition residual, walking the chain node by node."""
    W = intertwiner(family, np.array([j / T for j in range(T + 1)]))[-1]
    dec0 = family.decomposition(0.0)
    theta = np.exp(2j * np.pi / dec0.period)
    chain = np.eye(family.dim**2, dtype=complex)
    qchain = np.eye(family.dim**2, dtype=complex)
    for j in range(1, T + 1):
        F, Q = normalized(family, j / T)
        chain = F @ chain
        qchain = (F @ Q) @ qchain
    approx = sum(
        theta ** (m * T) * (W @ dec0.spectral_projectors[m])
        for m in range(dec0.period)
    )
    approx = approx + qchain @ normalized(family, 0.0)[1]
    return float(np.linalg.norm(chain - approx, 2))


def gap_bound(family: AdiabaticFamily, s_grid) -> float:
    """sup over the grid of spr(F(s) Q(s)), one node at a time."""
    s_grid = np.atleast_1d(s_grid).astype(float)
    family.prepare(s_grid)
    FQ = np.stack([F @ Q for F, Q in (normalized(family, s) for s in s_grid)])
    return float(np.abs(np.linalg.eigvals(FQ)).max())


# ---------------------------------------------------------------------------
# Landauer's balance, one step at a time
# ---------------------------------------------------------------------------


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho | sigma) = Tr rho (log rho - log sigma); sigma must be faithful."""
    rho = assert_hermitian(rho)
    log_sigma = herm_log(sigma)
    w, _ = hermitian_eig(rho)
    w = w[w > 1e-15]
    out = float(np.sum(w * np.log(w)))
    out -= float(np.real(np.trace(rho @ log_sigma)))
    return out


def step_balance(model: RISModel, rho: np.ndarray, s: float) -> dict:
    """Entropy/heat balance of a single interaction step at parameter s.

    Returns the system entropy change, the heat deposited in the probe,
    the step entropy production sigma = S(U(rho x xi)U* | rho' x xi) >= 0,
    the defect of the identity sigma = dS + beta*dQ (which vanishes) and
    the system's next state rho'.
    """
    xi = probe_state(model, s)
    U = joint_unitary(model, s)
    joint = U @ tensor_product(rho, xi) @ U.conj().T
    dS_, dE_ = model.dim_sys, model.dim_env
    rho_next = partial_trace_env(joint, dS_, dE_)
    xi_next = partial_trace_sys(joint, dS_, dE_)
    hE = assert_hermitian(model.h_env(s))
    beta = float(model.beta(s))
    entropy_change = von_neumann_entropy(rho_next) - von_neumann_entropy(rho)
    heat = float(np.real(np.trace(hE @ (xi_next - xi))))
    sigma = relative_entropy(joint, tensor_product(rho_next, xi))
    return {
        "entropy_change": entropy_change,
        "heat_to_probe": heat,
        "sigma": sigma,
        "beta": beta,
        "defect": sigma - entropy_change - beta * heat,
        "rho_next": rho_next,
    }


def step_productions(model: RISModel, rho_i: np.ndarray, T: int) -> np.ndarray:
    """sigma_k of steps k = 1..T of the length-T chain from rho_i, a walk that
    carries each step's partial trace to the next."""
    rho, out = np.asarray(rho_i, dtype=complex), []
    for k in range(1, T + 1):
        bal = step_balance(model, rho, k / T)
        out.append(bal["sigma"])
        rho = bal["rho_next"]
    return np.array(out)


# ---------------------------------------------------------------------------
# structural diagnostics and the physical adiabatic state, node by node
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


def adiabatic_state(
    model: RISModel, rho_i: np.ndarray, T: int, k: int | None = None
) -> np.ndarray:
    """Adiabatic approximation of the physical (alpha = 0) evolved state.

    z * sum_n Tr(p_n(0) rho_i) rho_inv(k/T) p_{n-k mod z}(k/T); it has unit
    trace and approximates L(k/T)...L(1/T) rho_i to O(1/T).

    Only period 1 is served: p_n(0) and p_{n-k}(k/T) are read from two
    independent decompositions, whose cycle labels need not match at z > 1
    (the library's ``deformed_adiabatic_state`` carries them along a grid).
    """
    family = AdiabaticFamily(model, 0.0)
    if k is None:
        k = T
    dec0 = family.decomposition(0.0)
    decs = family.decomposition(k / T)
    z = dec0.period
    if z > 1:
        raise ValueError(f"adiabatic_state serves period 1 only, got period {z}")
    out = np.zeros((model.dim_sys,) * 2, dtype=complex)
    for n in range(z):
        weight = np.trace(dec0.cycle_projectors[n] @ rho_i)
        out += weight * decs.rho @ decs.cycle_projectors[(n - k) % z]
    return z * out
