"""Property checks of the kernel for random models and counting observables.

A model counts a Hermitian probe observable Y(s) of one of three kinds: a
polynomial in h_env(s), which commutes with the probe state; a fixed random
observable, which does not; and a fixed observable with a repeated
eigenvalue. Systems and probes have two or three levels. For every model the
stacked kernel equals the one-node oracle bit for bit, and the reduced map
is trace preserving and does not depend on Y beyond round-off.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rislab import model as mod

import oracles
from test_stacked_kernel import _field_equal

NODES = (0.0, 0.5, 1.0)


@st.composite
def hermitian(draw, d):
    entries = st.floats(-1.0, 1.0)
    # every entry drawn on its own: no shared fill value
    parts = draw(hnp.arrays(np.float64, (2, d, d), elements=entries, fill=st.nothing()))
    X = parts[0] + 1j * parts[1]
    return 0.5 * (X + X.conj().T)


@st.composite
def counting_models(draw, kind):
    dS, dE = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    h0, h1 = draw(hermitian(dE)), draw(hermitian(dE))
    v = draw(hermitian(dS * dE))
    b0, b1 = draw(st.floats(0.1, 2.0)), draw(st.floats(-0.1, 1.0))
    default = mod.RISModel(
        dim_sys=dS,
        dim_env=dE,
        h_sys=draw(hermitian(dS)),
        h_env=lambda s: h0 + s * h1,
        coupling=lambda s: v,
        beta=lambda s: b0 + b1 * s,
        tau=draw(st.floats(0.1, 1.5)),
    )
    if kind == "commuting":
        c1, c2 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))

        def counting(s):
            h = default.h_env(s)
            return c1 * h + c2 * (h @ h)

    elif kind == "noncommuting":
        Y = draw(hermitian(dE))

        def counting(s):
            return Y

    else:
        _, V = np.linalg.eigh(draw(hermitian(dE)))
        y = draw(st.floats(-2.0, 2.0))
        spectrum = [y, y] + [draw(st.floats(-2.0, 2.0))] * (dE - 2)
        Y = V @ np.diag(spectrum) @ V.conj().T

        def counting(s):
            return Y

    return default, replace(default, counting=counting)


@pytest.mark.parametrize("kind", ["commuting", "noncommuting", "degenerate"])
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_kernel_and_reduced_map_for_any_counting_observable(kind, data):
    default, m = data.draw(counting_models(kind))
    for s, fam in zip(NODES, mod.kraus_families(m, NODES)):
        want = oracles.kraus_family(m, s)
        for f in fields(fam):
            assert _field_equal(getattr(fam, f.name), getattr(want, f.name)), (s, f.name)
        L = mod.deformed_map(m, s, 0.0, fam=fam)
        eye = np.eye(m.dim_sys)
        assert np.abs(L.adjoint_apply(eye) - eye).max() <= 1e-12
        gap = np.abs(L.matrix - mod.reduced_map(default, s).matrix).max()
        assert gap <= 1e-13, (s, gap)
