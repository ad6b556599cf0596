import sys

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rislab import model as mod
from rislab.model import RISModel


def close(a, b, rtol=1e-12) -> bool:
    """a equals b up to rtol relative to b's largest entry."""
    return bool(np.abs(np.asarray(a) - b).max() <= rtol * np.abs(b).max())


def random_hermitian(rng, d):
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (X + X.conj().T)


@st.composite
def hermitian(draw, d):
    """A d x d Hermitian matrix with entries of real and imaginary parts in [-1, 1]."""
    entries = st.floats(-1.0, 1.0)
    # every entry drawn on its own: no shared fill value
    parts = draw(hnp.arrays(np.float64, (2, d, d), elements=entries, fill=st.nothing()))
    X = parts[0] + 1j * parts[1]
    return 0.5 * (X + X.conj().T)


def random_faithful_state(rng, d=2, floor=0.05):
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = X @ X.conj().T + floor * np.eye(d)
    return rho / np.trace(rho).real


def random_small_model(rng):
    """A random 2x2-system / 2x2-probe model with well-separated probe levels."""
    h_sys = random_hermitian(rng, 2)
    gap = 0.5 + rng.random()
    base = rng.standard_normal()
    V = np.linalg.qr(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )[0]
    h_env = V @ np.diag([base, base + gap]).astype(complex) @ V.conj().T
    v = random_hermitian(rng, 4)
    beta = 0.3 + 2.0 * rng.random()
    return RISModel(
        dim_sys=2,
        dim_env=2,
        h_sys=h_sys,
        h_env=lambda s, _m=h_env: _m,
        coupling=lambda s, _m=v: _m,
        beta=lambda s, _b=beta: _b,
        tau=0.2 + rng.random(),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def wrap_everywhere(monkeypatch, original, record):
    """Replace ``original`` in every rislab namespace that binds it by a
    wrapper that passes its node argument to ``record`` first."""

    def counted(model, s, *args, **kwargs):
        record(s)
        return original(model, s, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rislab" or name.startswith("rislab.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)


@pytest.fixture
def kraus_builds(monkeypatch):
    """The nodes built through kraus_families (kraus_family builds through it too)."""
    calls = []
    wrap_everywhere(
        monkeypatch,
        mod.kraus_families,
        lambda s: calls.extend(np.asarray(s, dtype=float).reshape(-1).tolist()),
    )
    return calls
