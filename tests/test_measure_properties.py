"""Property checks of the full-statistics measure and of Lambda.

Over the models of ``test_stacked_kernel.CASES`` (two- and three-level
systems and probes, moving probes and a degenerate counting observable)
and random faithful initial states: the exactly enumerated
forward measure is normalised, the forward and backward measures charge
the same records, the entropy production sigma = E_forward(varsigma) is
non-negative, and the limiting log-MGF Lambda is convex in alpha.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rislab import fullstats as fs
from rislab import mgfldp as mg

from conftest import random_faithful_state
from test_stacked_kernel import CASES

PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)
models = st.sampled_from(CASES).map(lambda case: case[1])


@st.composite
def measures(draw):
    """The enumerated measure of a model at T <= 4 from a random faithful state."""
    m = draw(models)
    rho_i = random_faithful_state(np.random.default_rng(draw(st.integers(0, 2**32))), m.dim_sys)
    return fs.enumerate_measure(m, fs.entropic_setup(rho_i), draw(st.integers(1, 4)))


@PROPERTY
@given(meas=measures())
def test_forward_measure_is_normalised(meas):
    assert abs(meas.p_forward.sum() - 1.0) <= 1e-12


@PROPERTY
@given(meas=measures())
def test_forward_and_backward_supports_are_equal(meas):
    assert np.array_equal(meas.p_forward > 0, meas.p_backward > 0)


@PROPERTY
@given(meas=measures())
def test_entropy_production_is_nonnegative(meas):
    assert meas.entropy_production() >= -1e-12


@PROPERTY
@given(
    m=models,
    lo=st.floats(-3.0, -0.2),
    hi=st.floats(0.2, 2.0),
    count=st.integers(5, 15),
    s_nodes=st.integers(5, 41),
)
def test_lambda_is_convex(m, lo, hi, count, s_nodes):
    ev = mg.LambdaEvaluator(m, s_nodes)
    values = np.array([ev(a) for a in np.linspace(lo, hi, count)])
    assert np.diff(values, 2).min() >= -1e-9
