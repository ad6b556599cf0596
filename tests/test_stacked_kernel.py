"""The stacked kernel build, bit for bit against one node built alone.

``oracles.kraus_family`` builds one node alone with the library's
arithmetic. Every field of every kernel must be equal to it, not merely
close, so that every map, chain and CLI output built on the kernels stays
byte-identical. ``oracles.kraus_family_gibbs`` takes xi^{1/2} from the
probe's Gibbs state instead, as the library did before it read xi off Y's
eigenvalues: bitwise on the presets and every schedule, and to round-off
elsewhere.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislab import config as cfg
from rislab import fullstats as fs
from rislab import linalg as la
from rislab import model as mod
from rislab.adiabatic import DERIV_STEP

import oracles
from conftest import random_hermitian, wrap_everywhere

S_GRID = np.linspace(0.0, 1.0, 41)


def _entries(H):
    """A complex matrix as the config's nested [re, im] entries."""
    return [[[z.real, z.imag] for z in row] for row in H]


def _cases():
    rng = np.random.default_rng(66)
    tabulated = mod.TabulatedSchedule((0.0, 0.3, 0.7, 1.0), (0.5, 1.2, 0.9, 1.6))
    explicit = cfg.load_config(
        {
            "model": {
                "h_sys": _entries(random_hermitian(rng, 3)),
                "h_env": _entries(random_hermitian(rng, 3)),
                "coupling": _entries(random_hermitian(rng, 9)),
                "tau": 0.6,
            }
        }
    ).model
    # probe and coupling that move with s, so their stacks differ per node
    h0, h1 = random_hermitian(rng, 2), random_hermitian(rng, 2)
    v0, v1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    moving = mod.RISModel(
        dim_sys=2,
        dim_env=2,
        h_sys=random_hermitian(rng, 2),
        h_env=lambda s: h0 + s * h1,
        coupling=lambda s: v0 + np.sin(3 * s) * v1,
        beta=mod.beta_schedule_1(),
        tau=0.4,
    )
    degenerate = mod.RISModel(
        dim_sys=2,
        dim_env=3,
        h_sys=random_hermitian(rng, 2),
        h_env=lambda s: np.diag([0.0, 1.0, 1.0]).astype(complex),
        coupling=lambda s, _v=random_hermitian(rng, 6): _v,
        beta=mod.beta_schedule_1(),
        tau=0.7,
    )
    return [
        ("fd", mod.fd_model()),
        ("rwa", mod.rwa_model()),
        ("fd-schedule2", mod.fd_model(mod.beta_schedule_2())),
        ("fd-tabulated", mod.fd_model(tabulated)),
        ("explicit-3x3", explicit),
        ("moving-probe", moving),
        ("degenerate-Y", degenerate),
    ]


CASES = _cases()


def assert_same_kernel(got, want, where=None):
    """Every field of two node kernels equal bit for bit."""
    for f in fields(want):
        same = np.array_equal(getattr(got, f.name), getattr(want, f.name))
        assert same, (where, f.name)


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_stacked_build_matches_one_node_oracle(name, m):
    fams = mod.kraus_families(m, S_GRID)
    assert fams.dy.shape[0] == S_GRID.size
    for i, s in enumerate(S_GRID):
        assert_same_kernel(fams[i], oracles.kraus_family(m, float(s)), s)
    assert_same_kernel(mod.kraus_family(m, 0.35), oracles.kraus_family(m, 0.35))


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_stacked_deformed_matrix_is_per_node(name, m):
    """One einsum over the node stack rounds as the per-node sums do."""
    fams = mod.kraus_families(m, S_GRID)
    for alpha in (0.0, 0.5, -1.0, 2.0, 0.3 + 0.2j):
        stack = fams.deformed_matrix(alpha)
        assert stack.shape == (S_GRID.size,) + (m.dim_sys**2,) * 2
        for i in range(S_GRID.size):
            fam = fams[i]
            one = np.einsum("n,nab->ab", np.exp(alpha * fam.dy), fam.kron)
            assert np.array_equal(stack[i], one), (alpha, i)
            assert np.array_equal(fam.deformed_matrix(alpha), one), (alpha, i)


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_stacked_step_maps_are_per_node(name, m):
    """The step maps of a node set are those of each node built alone."""
    steps = fs.step_operators(m, S_GRID, mod.kraus_families(m, S_GRID))
    n = steps.y_values.shape[1]
    assert steps.forward.shape == (S_GRID.size, n, n) + (m.dim_sys**2,) * 2
    for i, s in enumerate(S_GRID):
        one = fs.step_operators(m, float(s))
        for f in ("forward", "backward", "y_values"):
            assert np.array_equal(getattr(steps, f)[i], getattr(one, f)), (s, f)


SCHEDULES = [
    mod.beta_schedule_1(),
    mod.beta_schedule_2(),
    mod.TabulatedSchedule((0.0, 0.3, 0.7, 1.0), (0.5, 1.2, 0.9, 1.6)),
    mod.ConstantSchedule(0.7),
]


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_schedules_read_over_a_node_array_are_per_node(s):
    """Each schedule class read over a node array gives each node's own read
    bit for bit, at the ends and at the centred-difference neighbours too; a
    beta that takes only floats still builds through kraus_families."""
    s = np.array(s)
    nodes = np.concatenate(
        [s, [0.0, 1.0], np.maximum(s - DERIV_STEP, 0.0), np.minimum(s + DERIV_STEP, 1.0)]
    )
    for schedule in SCHEDULES:
        per_node = [np.asarray(schedule(float(x))) for x in nodes]
        # directly and through _at_nodes, which both kernel builders read
        for read in (schedule(nodes), mod._at_nodes(schedule, nodes)):
            assert np.array_equal(_bits(read), _bits(per_node)), schedule
    m = replace(mod.fd_model(), beta=lambda x: 0.8 + min(x, 0.5))
    fams = mod.kraus_families(m, nodes)
    for i, x in enumerate(nodes):
        assert_same_kernel(fams[i], mod.kraus_family(m, x), x)


# the cases whose kernel the Gibbs-state route gives bit for bit
GIBBS_BITWISE = ("fd", "rwa", "fd-schedule2", "fd-tabulated", "degenerate-Y")


def _largest_gap(got, want) -> float:
    """The largest difference of kraus and kron, relative to each field's
    largest entry; dy and the y eigenvalues must be equal."""
    assert np.array_equal(got.dy, want.dy) and np.array_equal(got.y_eigenvalues, want.y_eigenvalues)
    return max(
        np.abs(getattr(got, f) - getattr(want, f)).max() / np.abs(getattr(want, f)).max()
        for f in ("kraus", "kron")
    )


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_kernel_equals_the_gibbs_state_route(name, m):
    """xi's weights read off Y's eigenvalues give the kernel of xi^{1/2} =
    herm_power(gibbs_state(h_env, beta), 1/2): bitwise on the presets, every
    schedule and a degenerate Y, to 1e-13 of the largest entry elsewhere."""
    for s in S_GRID:
        got, want = oracles.kraus_family(m, float(s)), oracles.kraus_family_gibbs(m, float(s))
        if name in GIBBS_BITWISE:
            assert_same_kernel(got, want, s)
        else:
            assert _largest_gap(got, want) <= 1e-13, s


@pytest.mark.parametrize("make", [mod.fd_model, mod.rwa_model], ids=["fd", "rwa"])
def test_preset_kernels_equal_the_gibbs_state_route_under_every_schedule(make):
    for schedule in SCHEDULES:
        m = make(schedule)
        fams = mod.kraus_families(m, S_GRID)
        for i, s in enumerate(S_GRID):
            assert_same_kernel(fams[i], oracles.kraus_family_gibbs(m, float(s)), (schedule, s))


def test_kernel_build_decomposes_only_y_and_the_hamiltonian(monkeypatch):
    """Two stacked eigh per node set, of Y and of the total Hamiltonian, the
    latter one row per run of equal Hamiltonians: the probe state and its
    root are read off Y's, with no gibbs_state or herm_power call."""
    shapes, routes = [], []
    eigh = np.linalg.eigh

    def counted(H, *args, **kwargs):
        shapes.append(np.shape(H))
        return eigh(H, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for original in (mod.gibbs_state, la.herm_power):
        wrap_everywhere(monkeypatch, original, routes.append)
    cases = dict(CASES)
    # fd and explicit-3x3 keep H fixed (only beta moves); moving-probe moves it
    for m, n, runs in ((mod.fd_model(), 10, 1), (cases["explicit-3x3"], 7, 1),
                       (cases["moving-probe"], 7, 7)):
        shapes.clear()
        mod.kraus_families(m, np.linspace(0.0, 1.0, n))
        dE = m.dim_env
        assert shapes == [(n, dE, dE), (runs, m.dim_sys * dE, m.dim_sys * dE)]
    assert routes == []


def test_joint_unitary_per_run_is_the_one_of_each_node(monkeypatch):
    """A coupling constant on stretches of s gives runs of several nodes
    (three here: v0, v1, then v0 again), one that moves with s runs of one;
    either way each node's unitary is bitwise its own exponential."""
    rng = np.random.default_rng(7)
    v0, v1, v2 = (random_hermitian(rng, 4) for _ in range(3))
    fd = mod.fd_model()
    stretches = replace(fd, coupling=lambda s: v1 if 0.3 <= s < 0.6 else v0)
    moving = replace(fd, coupling=lambda s: v0 + np.sin(3 * s) * v2)
    s = np.linspace(0.0, 1.0, 41)
    rows, exp = [], mod.herm_exp
    monkeypatch.setattr(mod, "herm_exp", lambda H, c: rows.append(len(H)) or exp(H, c))
    for m, runs in ((stretches, 3), (moving, s.size)):
        rows.clear()
        U = mod.joint_unitary(m, s)
        assert rows == [runs]
        for u, x in zip(U, s):
            assert np.array_equal(u, exp(mod.total_hamiltonian(m, float(x)), -1j * m.tau))


def test_probe_weight_below_the_floor_is_refused_naming_s():
    """A weight of xi under EIGENVALUE_FLOOR (e^{-40} / Z at beta = 50) is a
    LinalgError at its node, as herm_power refused the root of such a state."""
    with pytest.raises(la.LinalgError, match=r"probe weight 4\.248e-18 below floor at s=0\.5$"):
        mod.kraus_families(mod.fd_model(mod.ConstantSchedule(50.0)), [0.5])
    m = replace(mod.fd_model(), beta=lambda s: 1.0 if s < 0.7 else 50.0)
    mod.kraus_families(m, [0.0, 0.5])
    with pytest.raises(la.LinalgError, match=r"below floor at s=0\.75$"):
        mod.kraus_families(m, [0.0, 0.5, 0.75, 1.0])
    with pytest.raises(la.LinalgError, match="below floor"):
        oracles.kraus_family_gibbs(m, 1.0)


def test_cases_cover_their_claims():
    by_name = dict(CASES)
    fam = mod.kraus_family(by_name["degenerate-Y"], 0.5)
    assert la.outcome_groups(fam.y_eigenvalues).shape == (2, 3)
    assert by_name["explicit-3x3"].dim_sys == 3
    m = by_name["moving-probe"]
    assert not np.array_equal(m.h_env(0.0), m.h_env(1.0))


def test_node_views():
    """A node set's kernel indexes to its nodes; a node's kernel does not."""
    fams = mod.kraus_families(mod.fd_model(), [0.0, 0.5, 1.0])
    assert fams[1].kron.shape == (4, 4, 4)
    assert np.shares_memory(fams[1].kron, fams.kron)
    with pytest.raises(TypeError):
        fams[1][0]
    with pytest.raises(ValueError):
        mod.kraus_families(mod.fd_model(), [])


def _counted_reads(m, calls):
    """m with h_env, coupling and beta wrapped to count their reads in ``calls``."""

    def counted(name):
        f = getattr(m, name)

        def read(s):
            calls[name] += 1
            return f(s)

        return read

    return replace(m, **{name: counted(name) for name in calls})


def test_kernel_build_reads_each_node_once():
    """A stacked build reads h_env(s) and v(s) once per node, not again for U."""
    m = mod.fd_model()
    calls = {"h_env": 0, "coupling": 0}
    s = np.linspace(0.0, 1.0, 10)
    fams = mod.kraus_families(_counted_reads(m, calls), s)
    assert calls == {"h_env": 10, "coupling": 10}
    assert np.array_equal(fams.kraus, mod.kraus_families(m, s).kraus)


def test_step_maps_and_balance_read_only_the_kernel():
    """Once a table is built, its step maps, the enumeration and the balance
    right-hand side read h_env, beta and coupling no more."""
    calls = {"h_env": 0, "beta": 0, "coupling": 0}
    m = _counted_reads(mod.fd_model(), calls)
    setup = fs.entropic_setup(mod.gibbs_state(m.h_sys, 1.0))
    nodes = fs.ProtocolNodes(m, [3])
    assert calls == {"h_env": 3, "beta": 3, "coupling": 3}
    calls.update(h_env=0, beta=0, coupling=0)
    nodes.steps.backward
    meas = fs.enumerate_measure(m, setup, 3, nodes=nodes)
    assert fs.balance_rhs(m, setup, meas, 3, nodes=nodes) is not None
    assert calls == {"h_env": 0, "beta": 0, "coupling": 0}


def test_entropy_production_reads_only_the_kernel():
    """Given a table, sigma_tot reads h_env, beta and coupling no more: no
    per-step joint unitary, probe state or partial trace is rebuilt."""
    calls = {"h_env": 0, "beta": 0, "coupling": 0}
    m = _counted_reads(mod.fd_model(), calls)
    nodes = fs.ProtocolNodes(m, [10])
    calls.update(h_env=0, beta=0, coupling=0)
    sigma = fs.total_entropy_production(m, mod.gibbs_state(m.h_sys, 1.0), 10, nodes=nodes)
    assert sigma > 0
    assert calls == {"h_env": 0, "beta": 0, "coupling": 0}


def test_kernel_build_certifies_trace_preservation(monkeypatch):
    """A joint evolution that is not unitary fails the build at its node."""
    unitary = mod.joint_unitary

    def leaky(model, s, **kw):
        scale = np.where(np.asarray(s) > 0.5, 1.001, 1.0)
        return unitary(model, s, **kw) * scale[..., None, None]

    monkeypatch.setattr(mod, "joint_unitary", leaky)
    m = mod.fd_model()
    mod.kraus_families(m, [0.0, 0.5])
    with pytest.raises(la.LinalgError, match="s=0.75 not trace preserving"):
        mod.kraus_families(m, [0.0, 0.75, 0.5])
    with pytest.raises(la.LinalgError):
        mod.kraus_family(m, 1.0)


def _hermitian_stack(rng, n, d):
    return np.stack([random_hermitian(rng, d) for _ in range(n)])


def test_stacked_hermitian_eig_is_per_matrix(rng):
    H = _hermitian_stack(rng, 7, 3)
    w, V = la.hermitian_eig(H)
    for k in range(7):
        wk, Vk = la.hermitian_eig(H[k])
        assert np.array_equal(w[k], wk) and np.array_equal(V[k], Vk)


@pytest.mark.parametrize("bad", ["non-hermitian", "nan", "inf"])
def test_one_bad_matrix_in_a_stack_raises(rng, bad):
    H = _hermitian_stack(rng, 5, 3)
    if bad == "non-hermitian":
        H[3, 0, 1] += 1e-6
    else:
        H[3, 1, 1] = np.nan if bad == "nan" else np.inf
    with pytest.raises(la.LinalgError):
        la.hermitian_eig(H)
    with pytest.raises(la.LinalgError):
        la.assert_hermitian(H)


def test_large_matrix_does_not_loosen_a_small_ones_check(rng):
    """Each matrix is checked at its own scale, not at the stack's largest."""
    small = random_hermitian(rng, 3)
    small[0, 1] += 1e-9  # a defect 1e3 times the tolerance at scale ~1
    large = 1e6 * random_hermitian(rng, 3)  # at its scale 1e-9 would pass
    with pytest.raises(la.LinalgError):
        la.assert_hermitian(small)
    with pytest.raises(la.LinalgError):
        la.assert_hermitian(np.stack([large, small]))
    la.assert_hermitian(np.stack([large, random_hermitian(rng, 3)]))
