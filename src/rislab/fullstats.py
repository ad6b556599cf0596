"""Two-time measurement statistics of repeated interaction protocols.

A trajectory consists of an initial projective measurement of A_i on the
system, per-step projective measurements of the counting observable
Y = beta * h_env on each probe before and after its interaction, and a
final measurement of A_f on the system. This module evaluates forward and
backward trajectory probabilities exactly (one batched pass per step over
all record prefixes and suffixes), checks the trajectory-level balance
identity, samples the forward measure with reproducible counter-based
randomness, and reads Landauer's balance sigma_tot = Delta S + E(Delta_y)
of a chain from its node table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    HERM_TOL,
    assert_hermitian,
    distinct_sorted,
    herm_log,
    herm_power,
    hermitian_basis,
    hermitian_eig,
    ordered_product,
    outcome_gaps,
    outcome_groups,
    unvec,
    vec,
)
from .model import KrausFamily, RISModel, kraus_families, kraus_family

# enumerate_measure's peak memory per record is estimated as this base plus
# the T bytes of the record's probe_records row: ru_maxrss on fd read 109.1,
# 108.7, 112.4 and 108.7 B per record at T = 7, 8, 9 and 10, at most 103.4 + T.
# The budget is the most the estimate may reach: fd T = 10 (434.9 MiB
# measured, 456 MiB estimated) is admitted, T = 11 refused.
ENUMERATION_BASE_BYTES = 104
ENUMERATION_BUDGET = 512 * 2**20


class FullStatsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# observables with grouped spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralObservable:
    """A Hermitian observable with eigenvalues grouped into distinct outcomes."""

    matrix: np.ndarray
    values: np.ndarray
    projectors: tuple[np.ndarray, ...]

    @classmethod
    def from_matrix(cls, A: np.ndarray) -> "SpectralObservable":
        A = assert_hermitian(A)
        w, V = hermitian_eig(A)
        members = outcome_groups(w)
        return cls(
            matrix=A,
            values=np.asarray([np.mean(w[m]) for m in members]),
            projectors=tuple(V[:, m] @ V[:, m].conj().T for m in members),
        )

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    def dims(self) -> np.ndarray:
        return np.array([np.trace(P).real for P in self.projectors])


@dataclass(frozen=True)
class MeasurementSetup:
    """Initial state with initial and final system observables.

    ``obs_f`` is either a SpectralObservable or None, meaning
    A_f = -log(rho_f) with rho_f the exact reduced evolution of rho_i over
    the protocol length at hand (recomputed per T).
    """

    rho_i: np.ndarray
    obs_i: SpectralObservable
    obs_f: SpectralObservable | None
    entropic: bool = False


def entropic_setup(rho_i: np.ndarray) -> MeasurementSetup:
    """The entropy-production setup A_i = -log rho_i, A_f = -log rho_f."""
    rho_i = assert_hermitian(rho_i)
    return MeasurementSetup(
        rho_i=rho_i,
        obs_i=SpectralObservable.from_matrix(-herm_log(rho_i)),
        obs_f=None,
        entropic=True,
    )


def evolved_state(
    model: RISModel,
    rho_i: np.ndarray,
    T: int,
    *,
    nodes: ProtocolNodes | None = None,
) -> np.ndarray:
    """rho_f = L(T/T) ... L(1/T) rho_i (exact reduced chain, in vec space)."""
    nodes = node_table(model, T, nodes)
    chain = ordered_product(nodes.reduced[nodes.chain(T)])
    return unvec(chain @ vec(rho_i), model.dim_sys)


def resolve_final_observable(
    model: RISModel,
    setup: MeasurementSetup,
    T: int,
    *,
    nodes: ProtocolNodes | None = None,
) -> tuple[SpectralObservable, np.ndarray]:
    """The final observable and evolved state for a protocol of length T."""
    rho_f = evolved_state(model, setup.rho_i, T, nodes=nodes)
    if setup.obs_f is None:
        return SpectralObservable.from_matrix(-herm_log(rho_f)), rho_f
    return setup.obs_f, rho_f


# ---------------------------------------------------------------------------
# per-step measurement superoperators
# ---------------------------------------------------------------------------


def _outcome_sums(groups: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_{a in I, b in J} terms[a * dim_env + b] for every outcome pair (I, J)."""
    dE = groups.shape[1]
    terms = terms.reshape(terms.shape[:-3] + (dE, dE) + terms.shape[-2:])
    return np.einsum("Ia,Jb,...abkl->...IJkl", groups, groups, terms)


@dataclass(frozen=True)
class StepOperators:
    """Forward/backward maps of one step conditioned on probe outcomes.

    forward[i][j] is the d^2 x d^2 matrix of
    M -> Tr_env[(Id x Pi_j) U (M x Pi_i xi Pi_i) U*], and backward[i][j] of
    N -> Tr_env[U* (N x Pi_j xi Pi_j) U (Id x Pi_i)], for the n outcomes of
    Y: sums over the node's ``kernel`` of the transitions a -> b with a in
    outcome i and b in j, as marked by ``groups`` (n, dim_env). The step
    maps of N nodes carry a leading node axis: y_values (N, n), forward and
    backward (N, n, n, d^2, d^2). ``backward`` is built on first use: the
    sampler reads forward maps only.
    """

    y_values: np.ndarray
    forward: np.ndarray
    groups: np.ndarray = field(repr=False)
    kernel: KrausFamily = field(repr=False, compare=False)

    @cached_property
    def backward(self) -> np.ndarray:
        """(sum_{a in I, b in J} e^{-dy_ab} kron[a, b])^*: the term of a -> b is
        xi_b K_ab^* N K_ab / xi_a, so sum_{IJ} backward = L^(-1)(s)^*."""
        weighted = np.exp(-self.kernel.dy)[..., None, None] * self.kernel.kron
        return _outcome_sums(self.groups, weighted).conj().swapaxes(-1, -2)


def step_operators(model: RISModel, s, fam: KrausFamily | None = None) -> StepOperators:
    """The conditioned step maps at one node or a 1-d array of nodes.

    ``fam`` is the kernel of the same nodes, built here when None. A node
    set's maps, each bitwise equal to its node's own, need one outcome
    grouping of Y at every node.
    """
    s = np.asarray(s, dtype=float)
    if fam is None:
        fam = kraus_families(model, s) if s.ndim else kraus_family(model, float(s))
    s_all, y = np.atleast_1d(s), fam.y_eigenvalues
    y_all = np.atleast_2d(y)
    gaps = outcome_gaps(y_all)
    moved = (gaps != gaps[0]).any(axis=1)
    if moved.any():
        raise FullStatsError(
            f"the outcome grouping of Y at s={s_all[moved.argmax()]} differs "
            f"from that at s={s_all[0]}"
        )
    G = outcome_groups(y_all[0]).astype(float)
    y_values = np.einsum("Ia,...a->...I", G, y) / G.sum(axis=1)
    return StepOperators(y_values, _outcome_sums(G, fam.kron), G, fam)


# ---------------------------------------------------------------------------
# per-task node table
# ---------------------------------------------------------------------------


class ProtocolNodes:
    """The nodes of one task's finite-T chains, as one stacked table.

    ``s`` (N,) is the sorted union of the nodes k/T (k = 1..T) of every T in
    ``T_list``, as exact doubles: k/T and (m*k)/(m*T) round to the same
    double, so nested chains share their nodes. ``kernel`` is their stacked
    KrausFamily; ``reduced`` (N, d^2, d^2) holds the matrices of L(s), the
    kernel's ``deformed_matrix(0)``; ``steps`` is their StepOperators stack,
    built from the kernel on first use. ``chain(T)`` indexes all of them. A
    table lives as long as the task that made it.
    """

    def __init__(self, model: RISModel, T_list):
        self.model = model
        self.s = distinct_sorted(np.concatenate([np.arange(1, T + 1) / T for T in T_list]))
        self.kernel = kraus_families(model, self.s)
        self.reduced = self.kernel.deformed_matrix(0.0)

    @cached_property
    def steps(self) -> StepOperators:
        return step_operators(self.model, self.s, self.kernel)

    def chain(self, T: int) -> np.ndarray:
        """The indices into ``s`` of the nodes k/T (k = 1..T) of a length-T chain.

        A T whose nodes the table does not hold raises ValueError.
        """
        want = np.arange(1, T + 1) / T
        idx = np.searchsorted(self.s, want)
        if not np.array_equal(self.s[np.minimum(idx, self.s.size - 1)], want):
            raise ValueError(f"the node table does not hold the chain of T={T}")
        return idx


def node_table(model: RISModel, T: int, nodes: ProtocolNodes | None) -> ProtocolNodes:
    """The table a length-T walker reads: ``nodes``, or ProtocolNodes(model, [T]).

    A table built for another model object raises ValueError, so every
    layer of a task reads the kernels of the model it was handed.
    """
    if nodes is None:
        return ProtocolNodes(model, [T])
    if nodes.model is not model:
        raise ValueError("the node table was built for another model")
    return nodes


# ---------------------------------------------------------------------------
# exact forward / backward probabilities
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryMeasure:
    """The full forward/backward measure over complete measurement records.

    Record r has the outcome indices ``i_index[r]`` of A_i, ``f_index[r]``
    of A_f and, per step k, the probe outcome pair (i_k, j_k) as
    ``probe_records[r, k] = i_k * n_outcomes + j_k``, as in
    ``SampledTrajectories``; each in the narrowest unsigned dtype that holds
    its largest index (uint8 up to 16 probe outcomes). Records are in
    lexicographic order of (i_index, probe_records, f_index).
    """

    i_index: np.ndarray
    probe_records: np.ndarray
    f_index: np.ndarray
    a_i: np.ndarray
    a_f: np.ndarray
    delta_a: np.ndarray
    delta_y: np.ndarray
    p_forward: np.ndarray
    p_backward: np.ndarray
    varsigma: np.ndarray = field(init=False)

    def __post_init__(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            self.varsigma = np.log(self.p_forward) - np.log(self.p_backward)

    def entropy_production(self) -> float:
        """sigma_tot = E_forward(varsigma), the KL divergence of the measures."""
        mask = self.p_forward > 0
        return float(np.sum(self.p_forward[mask] * self.varsigma[mask]))

    def mgf(self, alpha: complex) -> complex:
        """E e^{alpha Delta_y}; the MGF of Delta_a is ``pair_mgf(0, alpha)``."""
        return complex(np.sum(self.p_forward * np.exp(alpha * self.delta_y)))

    def pair_mgf(self, alpha1: complex, alpha2: complex) -> complex:
        return complex(
            np.sum(self.p_forward * np.exp(alpha1 * self.delta_y + alpha2 * self.delta_a))
        )


def _traces(P: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re Tr(P @ unvec(x)) for stacks P (..., d, d) and x (..., d^2) that broadcast:
    sum_ij P_ij x.reshape(d, d)_ij, with no P @ X temporary per pair."""
    d = P.shape[-1]
    return np.real(np.einsum("...ij,...ij->...", P, x.reshape(x.shape[:-1] + (d, d))))


def enumerate_measure(
    model: RISModel,
    setup: MeasurementSetup,
    T: int,
    *,
    nodes: ProtocolNodes | None = None,
) -> TrajectoryMeasure:
    """Exact enumeration of the trajectory measure over all records.

    One batched pass per step carries the states of all prefixes forward
    (the new outcome pair is the minor index) and one carries the states of
    all suffixes backward (the new pair is the major index), so the cost is
    linear in the number of records. Guarded in bytes: the n_i * n_f *
    n_outcomes^(2T) records times ENUMERATION_BASE_BYTES + T bytes each
    must not exceed ENUMERATION_BUDGET, checked before any record is
    allocated.
    """
    nodes = node_table(model, T, nodes)
    obs_f, rho_f = resolve_final_observable(model, setup, T, nodes=nodes)
    steps, idx = nodes.steps, nodes.chain(T)
    n_out = steps.y_values.shape[-1]
    n_i, n_f = setup.obs_i.n_outcomes, obs_f.n_outcomes
    count = n_i * n_f * n_out ** (2 * T)
    per_record = ENUMERATION_BASE_BYTES + T
    if count * per_record > ENUMERATION_BUDGET:
        raise FullStatsError(
            f"enumeration of {count} records would need about "
            f"{count * per_record} bytes ({per_record} per record), over the "
            f"budget of {ENUMERATION_BUDGET} bytes"
        )
    d2 = model.dim_sys**2
    pi_i, pi_f = np.stack(setup.obs_i.projectors), np.stack(obs_f.projectors)

    # Every product is a (d^2, d^2) @ (d^2, 1) matrix-vector product, which
    # rounds as a walk along one record does; an ordered product of the chain
    # or a matrix-matrix product over the stack of states would round otherwise.
    # prefixes (ai, pair_1..pair_k): (n_i * n_pair^k, d^2), freed once traced
    fwd = np.stack([vec(P @ setup.rho_i @ P) for P in pi_i])
    for k in idx:
        maps = steps.forward[k].reshape(-1, d2, d2)
        fwd = (maps @ fwd[:, None, :, None]).reshape(-1, d2)
    p_forward = np.maximum(_traces(pi_f, fwd[:, None]).reshape(-1), 0.0)
    del fwd
    # suffixes (pair_k..pair_T) for every af: (n_pair^(T-k+1), n_f, d^2)
    bwd = np.stack([vec(P @ rho_f @ P) for P in pi_f])[None]
    for k in idx[::-1]:
        maps = steps.backward[k].reshape(-1, 1, 1, d2, d2)
        bwd = (maps @ bwd[None, ..., None]).reshape(-1, n_f, d2)
    p_backward = np.maximum(_traces(pi_i[:, None, None], bwd).reshape(-1), 0.0)
    # the records' grid (a_i, pair_1, ..., pair_T, a_f), each step's pairs and
    # increments broadcast along its axis, added in step order as along a walk
    grid = (n_i,) + (n_out * n_out,) * T + (n_f,)
    probe_records = np.empty(grid + (T,), np.min_scalar_type(n_out * n_out - 1))
    delta_y = np.zeros(grid)
    for k, y in enumerate(steps.y_values[idx]):
        pairs = np.arange(n_out * n_out).reshape((-1,) + (1,) * (T - k))
        probe_records[..., k] = pairs
        delta_y += (y[None, :] - y[:, None]).reshape(pairs.shape)
    i_index = np.repeat(np.arange(n_i, dtype=np.min_scalar_type(n_i - 1)), count // n_i)
    f_index = np.tile(np.arange(n_f, dtype=np.min_scalar_type(n_f - 1)), count // n_f)
    a_i, a_f = setup.obs_i.values[i_index], obs_f.values[f_index]
    return TrajectoryMeasure(
        i_index=i_index,
        probe_records=probe_records.reshape(count, T),
        f_index=f_index,
        a_i=a_i,
        a_f=a_f,
        delta_a=a_i - a_f,
        delta_y=delta_y.reshape(-1),
        p_forward=p_forward,
        p_backward=p_backward,
    )


# ---------------------------------------------------------------------------
# trajectory-level balance identity
# ---------------------------------------------------------------------------


def _commutes_with_projectors(rho: np.ndarray, obs: SpectralObservable) -> bool:
    scale = max(np.abs(rho).max(), 1.0)
    return all(
        np.abs(P @ rho - rho @ P).max() <= 1e-10 * scale for P in obs.projectors
    )


def balance_applicable(
    model: RISModel,
    setup: MeasurementSetup,
    T: int,
    *,
    nodes: ProtocolNodes | None = None,
    final: tuple[SpectralObservable, np.ndarray] | None = None,
) -> bool:
    """Check the hypotheses under which the balance identity holds.

    (i) rho_i commutes with the initial observable and (ii) the evolved
    state commutes with the final observable. The third, that each probe
    state is a function of its counting observable, holds by construction:
    xi = e^{-Y} / Z. ``final`` is the caller's ``resolve_final_observable``
    of the same (model, setup, T), if it has one.
    """
    obs_f, rho_f = final or resolve_final_observable(model, setup, T, nodes=nodes)
    if not _commutes_with_projectors(setup.rho_i, setup.obs_i):
        return False
    return _commutes_with_projectors(rho_f, obs_f)


def balance_rhs(
    model: RISModel,
    setup: MeasurementSetup,
    measure: TrajectoryMeasure,
    T: int,
    *,
    nodes: ProtocolNodes | None = None,
) -> np.ndarray | None:
    """Closed form of log(pF/pB) for every record of ``measure``, or None
    when the identity does not apply.

    log[ Tr(pi_i rho_i) dim(pi_f) / (Tr(pi_f rho_f) dim(pi_i)) ]
    + sum_k beta_k (E_{j_k} - E_{i_k}), with E_i the mean probe energy on
    the i-th outcome eigenspace; the sum is the record's Delta_y, as
    Y = beta * h_env. ``measure`` is the enumeration of the same
    (model, setup, T); a record whose initial or final outcome has zero
    weight gets NaN.
    """
    obs_f, rho_f = resolve_final_observable(model, setup, T, nodes=nodes)
    if not balance_applicable(model, setup, T, nodes=nodes, final=(obs_f, rho_f)):
        return None
    ai, af = measure.i_index, measure.f_index
    wi = np.array([np.trace(P @ setup.rho_i).real for P in setup.obs_i.projectors])
    wf = np.array([np.trace(P @ rho_f).real for P in obs_f.projectors])
    wi, wf = wi[ai], wf[af]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(wi / wf) + np.log(obs_f.dims()[af] / setup.obs_i.dims()[ai])
    out += measure.delta_y
    return np.where((wi > 0) & (wf > 0), out, np.nan)


# ---------------------------------------------------------------------------
# entropies and Landauer's balance
# ---------------------------------------------------------------------------


def von_neumann_entropy(rho: np.ndarray) -> float:
    w, _ = hermitian_eig(rho)
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum())


def renyi_relative_entropy(alpha: float, rho: np.ndarray, sigma: np.ndarray) -> float:
    """S_alpha(rho | sigma) = log Tr(rho^alpha sigma^(1-alpha))."""
    A = herm_power(assert_hermitian(rho), float(alpha))
    B = herm_power(assert_hermitian(sigma), 1.0 - float(alpha))
    return float(np.log(np.real(np.trace(A @ B))))


def _landauer_terms(nodes: ProtocolNodes, rho_i: np.ndarray, T: int) -> tuple[float, float]:
    """(S(rho_T) - S(rho_i), E(Delta_y)) of the length-T chain of ``nodes``.

    With M1 = sum_n dy_n kron_n, the alpha-derivative at 0 of the deformed
    matrix, node k's first-order jet is [[L_k, 0], [M1_k, L_k]]. The
    ordered product of the chain's jets maps [vec rho_i; 0] to
    [vec rho_T; vec D], and Tr D = E(Delta_y) = sum_k beta_k Delta Q_k, the
    heat the probes take up. One stacked product, no walk over T.
    """
    idx = nodes.chain(T)
    L = nodes.reduced[idx]
    d2 = L.shape[-1]
    jets = np.zeros((idx.size, 2 * d2, 2 * d2), dtype=complex)
    jets[:, :d2, :d2] = jets[:, d2:, d2:] = L
    jets[:, d2:, :d2] = np.einsum("kn,knab->kab", nodes.kernel.dy[idx], nodes.kernel.kron[idx])
    x = ordered_product(jets)[:, :d2] @ vec(rho_i)
    d = nodes.model.dim_sys
    rho_T = unvec(x[:d2], d)
    mean_dy = float(np.real(np.trace(unvec(x[d2:], d))))
    return von_neumann_entropy(rho_T) - von_neumann_entropy(rho_i), mean_dy


def total_entropy_production(
    model: RISModel,
    rho_i: np.ndarray,
    T: int,
    *,
    nodes: ProtocolNodes | None = None,
) -> float:
    """sigma_tot = S(rho_T) - S(rho_i) + E(Delta_y) for the entropic setup.

    This is E(varsigma), the mean of the entropic balance -Delta_a +
    Delta_y, and equals the sum over steps of the relative entropies
    sigma_k = Delta S_k + beta_k Delta Q_k >= 0 (Landauer's balance per
    step). Read from the table's kernel by one ordered product of
    first-order jets (``_landauer_terms``), so it enumerates no
    trajectories and reads nothing of the model once the table is built.
    """
    delta_s, mean_dy = _landauer_terms(node_table(model, T, nodes), rho_i, T)
    return delta_s + mean_dy


# ---------------------------------------------------------------------------
# forward sampling
# ---------------------------------------------------------------------------


@dataclass
class SampledTrajectories:
    a_i: np.ndarray
    a_f: np.ndarray
    delta_a: np.ndarray
    delta_y: np.ndarray
    varsigma: np.ndarray
    probe_records: np.ndarray  # (n, T) flat outcome-pair indices, as in TrajectoryMeasure


# streams filled row-major per chunk before one transposed copy into the block
_CHUNK_STREAMS = 128


def _stream_rows(bits, n: int, start: int, length: int) -> np.ndarray:
    """Rows [start, start + length) of the n streams (seed, t) of ``bits``'s seed.

    A Philox4x64 counter yields four words, one uniform each, so key words
    (t, seed), counter word 0 = start / 4 and an empty buffer continue the
    stream of a fresh ``Philox(key=(seed << 64) + t)`` at row ``start``.
    """
    if start % 4:
        raise ValueError(f"a block of rows starts at a multiple of 4, not {start}")
    gen = np.random.Generator(bits)
    state = bits.state
    state["state"]["counter"][:] = (start // 4, 0, 0, 0)
    state["buffer_pos"] = 4
    out = np.empty((length, n))
    chunk = np.empty((min(n, _CHUNK_STREAMS), length))
    for t0 in range(0, n, _CHUNK_STREAMS):
        rows = chunk[: min(_CHUNK_STREAMS, n - t0)]
        for t, row in enumerate(rows, start=t0):
            state["state"]["key"][0] = t
            bits.state = state
            gen.random(out=row)
        out[:, t0 : t0 + len(rows)] = rows.T
    return out


def trajectory_uniforms(seed: int, n: int, length: int, start: int = 0) -> np.ndarray:
    """(length, n) uniforms: column t holds rows [start, start + length) of the
    Philox4x64-10 stream keyed by (seed, t).

    One bit generator serves every column, reset to each stream's key
    rather than built per trajectory. ``start`` is a multiple of 4 (else
    ValueError), so a draw from ``start`` equals those rows of a draw from
    0 bit for bit, as do the first rows of a longer draw a shorter one.
    """
    return _stream_rows(np.random.Philox(key=seed << 64), n, start, length)


class UniformBlocks:
    """The rows [0, max(T_list) + 2) of every stream, held one block at a time.

    ``blocks[r]`` is row r of ``trajectory_uniforms(seed, n, max(T_list) +
    2)``, and ``shape`` is that draw's, so the sampler reads either one
    alike. The head block holds the rows that every T but the largest
    reads: the second-largest distinct T + 2, rounded up to the 4-word
    counter. The tail holds the largest T's remaining rows. A row outside
    the held block drops that block before the block holding the row is
    drawn, so a caller that samples the largest T last draws each block
    once and never holds both. With one distinct T, or when the head
    reaches the end, there is one block. One bit generator serves every
    block.
    """

    def __init__(self, seed: int, n: int, T_list):
        longest, *rest = sorted(set(T_list), reverse=True)
        self.shape = (longest + 2, n)
        self._head = min(-(-(rest[0] + 2) // 4) * 4, self.shape[0]) if rest else self.shape[0]
        self._bits = np.random.Philox(key=seed << 64)
        self._start, self._block = 0, np.empty((0, n))

    def __getitem__(self, r: int) -> np.ndarray:
        if not 0 <= r < self.shape[0]:
            raise IndexError(f"row {r} is outside the {self.shape[0]} rows")
        if not self._start <= r < self._start + len(self._block):
            start, stop = (0, self._head) if r < self._head else (self._head, self.shape[0])
            self._block = None  # drop the held block before drawing the next
            self._block = _stream_rows(self._bits, self.shape[1], start, stop - start)
            self._start = start
        return self._block[r - self._start]


def sample_trajectories(
    model: RISModel,
    setup: MeasurementSetup,
    T: int,
    n: int,
    seed: int,
    *,
    nodes: ProtocolNodes | None = None,
    uniforms: np.ndarray | UniformBlocks | None = None,
) -> SampledTrajectories:
    """Draw n independent trajectories from the exact forward measure.

    Randomness is counter-based: trajectory t consumes T + 2 uniforms from
    the Philox4x64-10 stream keyed by (seed, t), so results depend only on
    (seed, n, T) and not on batching. One bit generator serves the call,
    reset to each trajectory's key (``trajectory_uniforms``). A caller
    sampling several T passes ``uniforms``: a ``trajectory_uniforms(seed,
    n, L)`` draw with L >= T + 2, or the ``UniformBlocks`` of its T_list.
    The call reads rows 0..T + 1 one at a time, in order, as ``uniforms[r]``.

    The sampler works in real coordinates: the n states are the columns of
    a real (d^2, n) stack X of their coordinates in ``hermitian_basis(d)``
    B, and each forward map M_o (o = (i, j)) becomes the real B^* M_o B,
    certified once per chain (a node whose maps do not preserve
    Hermiticity raises FullStatsError). The n_pair maps of a node are the
    row blocks of one (d^2 n_pair, d^2) matrix with rows in (a, o) order,
    so one product with X holds every state's image under every map; the
    outcome probabilities are the images' traces, the sums of their
    diagonal coordinates, and one gather picks each state's image under its
    chosen map, renormalised to unit trace. For the entropic setup varsigma
    is filled through the identity varsigma = -delta_a + delta_y; otherwise
    it is NaN (exact log-ratios are available through enumeration).
    """
    nodes = node_table(model, T, nodes)
    obs_f, _ = resolve_final_observable(model, setup, T, nodes=nodes)
    steps, idx = nodes.steps, nodes.chain(T)
    n_out = steps.y_values.shape[-1]
    n_pair = n_out * n_out
    d = model.dim_sys
    B = hermitian_basis(d)
    Bh = B.conj().T

    if uniforms is None:
        uniforms = trajectory_uniforms(seed, n, T + 2)
    elif uniforms.shape[0] < T + 2 or uniforms.shape[1:] != (n,):
        raise ValueError(f"uniforms of shape {uniforms.shape} cannot serve T={T}, n={n}")

    # initial measurement
    pi_list = setup.obs_i.projectors
    q = np.array([np.trace(P @ setup.rho_i).real for P in pi_list])
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    ai_idx = (uniforms[0] > np.cumsum(q)[:, None]).sum(axis=0)
    states = np.empty((d * d, n))
    for a in range(len(pi_list)):
        mask = ai_idx == a
        if mask.any():
            post = pi_list[a] @ setup.rho_i @ pi_list[a]
            states[:, mask] = (Bh @ vec(post / np.trace(post).real)).real[:, None]

    # per node: the real maps with rows in (a, o) order, (T, d^2 * n_pair, d^2);
    # y_j - y_i per pair o = (i, j), (T, o)
    maps = Bh @ steps.forward[idx].reshape(T, n_pair, d * d, d * d) @ B
    worst = np.abs(maps.imag).max(axis=(1, 2, 3))
    bad = worst > HERM_TOL * np.abs(maps).max(axis=(1, 2, 3))
    if bad.any():
        raise FullStatsError(
            f"the forward maps at s={nodes.s[idx[bad.argmax()]]} do not preserve "
            f"Hermiticity (imaginary part {worst[bad.argmax()]:.3e} in real coordinates)"
        )
    maps = maps.real.transpose(0, 2, 1, 3).reshape(T, d * d * n_pair, d * d)
    i_idx, j_idx = np.divmod(np.arange(n_pair), n_out)
    dy = steps.y_values[idx][:, j_idx] - steps.y_values[idx][:, i_idx]
    delta_y = np.zeros(n)
    probe_records = np.empty((T, n), dtype=np.min_scalar_type(n_pair - 1))
    cols = np.arange(n)
    for k in range(T):  # a walk: each draw reads the state the step before left
        images = (maps[k] @ states).reshape(d * d, n_pair * n)
        probs = images[:d].sum(axis=0).reshape(n_pair, n)
        np.clip(probs, 0.0, None, out=probs)
        probs /= probs.sum(axis=0)
        for o in range(1, n_pair):  # cumulative sums along the outcome axis
            probs[o] += probs[o - 1]
        choice = (uniforms[1 + k] > probs).sum(axis=0)
        choice = np.minimum(choice, n_pair - 1)
        states = images.take(choice * n + cols, axis=1)
        states *= 1.0 / states[:d].sum(axis=0)
        delta_y += dy[k, choice]
        probe_records[k] = choice

    # final measurement: Tr(P rho) = (B^* vec P) . (B^* vec rho)
    pf_mats = (vec(np.stack(obs_f.projectors)) @ B.conj()).real
    probs_f = pf_mats @ states
    probs_f = np.clip(probs_f, 0.0, None)
    probs_f /= probs_f.sum(axis=0)
    af_idx = (uniforms[T + 1] > np.cumsum(probs_f, axis=0)).sum(axis=0)
    af_idx = np.minimum(af_idx, obs_f.n_outcomes - 1)

    a_i = setup.obs_i.values[ai_idx]
    a_f = obs_f.values[af_idx]
    delta_a = a_i - a_f
    if setup.entropic:
        varsigma = -delta_a + delta_y
    else:
        varsigma = np.full(n, np.nan)
    return SampledTrajectories(
        a_i=a_i,
        a_f=a_f,
        delta_a=delta_a,
        delta_y=delta_y,
        varsigma=varsigma,
        probe_records=probe_records.T,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _write_rows(path, data, fields: tuple[str, ...]) -> None:
    """One row per trajectory: its id, then each field with shortest round-trip repr.

    A column's values are grouped by their float64 bit pattern and each
    distinct pattern is formatted once, so -0.0 and NaN keep their own text.
    """
    columns = []
    for f in fields:
        col = np.ascontiguousarray(getattr(data, f), dtype=np.float64)
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        text = [repr(v) for v in bits.view(np.float64).tolist()]
        columns.append([text[i] for i in inverse.tolist()])
    lines = [",".join(("trajectory_id", *fields))]
    lines += [f"{t},{','.join(row)}" for t, row in enumerate(zip(*columns))]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_TRAJECTORY_FIELDS = ("a_i", "a_f", "delta_a", "delta_y", "varsigma")


def write_trajectories_csv(path, sampled: SampledTrajectories) -> None:
    """Write sampled trajectories with shortest round-trip float formatting."""
    _write_rows(path, sampled, _TRAJECTORY_FIELDS)


def write_measure_csv(path, measure: TrajectoryMeasure) -> None:
    """Write the exact enumerated measure (forward/backward probabilities)."""
    _write_rows(path, measure, _TRAJECTORY_FIELDS + ("p_forward", "p_backward"))
