"""The stacked kernel build, bit for bit against one node built alone.

``oracles.kraus_family`` is the one-node build the library used before
``kraus_families`` decomposed a whole node set in stacked calls. Every field
of every kernel must be equal to it, not merely close, so that every map,
chain and CLI output built on the kernels stays byte-identical.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from rislab import config as cfg
from rislab import linalg as la
from rislab import model as mod

import oracles
from conftest import random_hermitian

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
    caller_Y = random_hermitian(rng, 2)
    return [
        ("fd", mod.fd_model()),
        ("rwa", mod.rwa_model()),
        ("fd-schedule2", mod.fd_model(mod.beta_schedule_2())),
        ("fd-tabulated", mod.fd_model(tabulated)),
        ("explicit-3x3", explicit),
        ("moving-probe", moving),
        ("degenerate-Y", degenerate),
        ("caller-Y", replace(mod.fd_model(), counting=lambda s: caller_Y)),
    ]


CASES = _cases()


def _field_equal(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("name,m", CASES, ids=[c[0] for c in CASES])
def test_stacked_build_matches_one_node_oracle(name, m):
    families = mod.kraus_families(m, S_GRID)
    assert len(families) == S_GRID.size
    for s, fam in zip(S_GRID, families):
        want = oracles.kraus_family(m, float(s))
        for f in fields(fam):
            assert _field_equal(getattr(fam, f.name), getattr(want, f.name)), (s, f.name)
    one = mod.kraus_family(m, 0.35)
    want = oracles.kraus_family(m, 0.35)
    assert all(_field_equal(getattr(one, f.name), getattr(want, f.name)) for f in fields(one))


def test_cases_cover_their_claims():
    by_name = dict(CASES)
    assert mod.kraus_family(by_name["degenerate-Y"], 0.5).groups.shape == (2, 3)
    assert by_name["explicit-3x3"].dim_sys == 3
    m = by_name["moving-probe"]
    assert not np.array_equal(m.h_env(0.0), m.h_env(1.0))
    assert mod.kraus_families(m, []) == []


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
