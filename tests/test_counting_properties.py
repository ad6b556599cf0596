"""Property checks of the kernel for random models.

Systems and probes have two to four levels, and the probe Hamiltonian and
the inverse temperature move with s. For every model the stacked kernel
equals the one-node oracle bit for bit, and the reduced map is trace
preserving and equals its defining partial-trace expression.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rislab import model as mod
from rislab.linalg import SuperOperator

import oracles
from conftest import hermitian
from test_stacked_kernel import assert_same_kernel

NODES = (0.0, 0.5, 1.0)


@st.composite
def random_models(draw):
    dS, dE = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    h0, h1 = draw(hermitian(dE)), draw(hermitian(dE))
    v = draw(hermitian(dS * dE))
    b0, b1 = draw(st.floats(0.1, 2.0)), draw(st.floats(-0.1, 1.0))
    return mod.RISModel(
        dim_sys=dS,
        dim_env=dE,
        h_sys=draw(hermitian(dS)),
        h_env=lambda s: h0 + s * h1,
        coupling=lambda s: v,
        beta=lambda s: b0 + b1 * s,
        tau=draw(st.floats(0.1, 1.5)),
    )


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(m=random_models())
def test_kernel_and_reduced_map_for_random_models(m):
    fams = mod.kraus_families(m, NODES)
    for i, s in enumerate(NODES):
        fam = fams[i]
        assert_same_kernel(fam, oracles.kraus_family(m, s), s)
        # the stacked node's reduced map, its Kraus family and TP checked
        L = SuperOperator(
            dim=m.dim_sys,
            matrix=fam.deformed_matrix(0.0),
            kraus=fam.kraus,
            completely_positive=True,
            trace_preserving=True,
        )
        eye = np.eye(m.dim_sys)
        assert np.abs(L.adjoint_apply(eye) - eye).max() <= 1e-12
        gap = np.abs(L.matrix - oracles.deformed_map_bare(m, s, 0.0).matrix).max()
        assert gap <= 1e-12, (s, gap)
