"""Property tests: exact symmetries of the ratio Q on dyadic inputs.

Dilation by a power of two: if g(x) = f(lam x) with lam = 2^k then
``Q_g(z) = Q_f(z / lam)``.  Scaling by a power of two is exact in binary
floating point, and both representations run through the same segment
kernels, so the two values must be the same float, not merely close.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from crestimate import PiecewiseLinearFunction, StepFunction, bound_report, make_step

# dyadic grids: breakpoints on 1/32, values on 1/1024
_widths = st.lists(st.integers(1, 128), min_size=1, max_size=24)
_values = st.integers(0, 8 * 1024)


@st.composite
def dyadic_functions(draw):
    widths = draw(_widths)
    x = draw(st.integers(-1024, 1024)) / 32
    edges = [x]
    for w in widths:
        edges.append(edges[-1] + w / 32)
    if draw(st.booleans()):
        values = [v / 1024 for v in draw(st.lists(_values, min_size=len(widths), max_size=len(widths)))]
        values[draw(st.integers(0, len(values) - 1))] = 1.0  # nonzero
        return make_step(edges, values)
    values = [v / 1024 for v in draw(st.lists(_values, min_size=len(edges), max_size=len(edges)))]
    values[draw(st.integers(0, len(values) - 2))] = 1.0  # nonzero on the half-open support
    return PiecewiseLinearFunction(tuple(edges), tuple(values))


def _dilate(f, lam):
    """g(x) = f(lam x): the same values on edges divided by lam."""
    if isinstance(f, StepFunction):
        return make_step([t / lam for t in f.breakpoints], f.values)
    return PiecewiseLinearFunction(tuple(t / lam for t in f.nodes), f.node_values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    f=dyadic_functions(),
    k=st.integers(-12, 12),
    z=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
)
def test_q_is_covariant_under_dyadic_dilation(f, k, z):
    lam = math.ldexp(1.0, k)
    g = _dilate(f, lam)
    assert bound_report(g, z).q_value == bound_report(f, z / lam).q_value
