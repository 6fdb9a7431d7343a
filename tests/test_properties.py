"""Property tests: exact symmetries of the ratio Q on dyadic inputs.

Dilation by a power of two: if g(x) = f(lam x) with lam = 2^k then
``Q_g(z) = Q_f(z / lam)``.  Scaling by a power of two is exact in binary
floating point, and both representations run through the same segment
kernels, so the two values must be the same float, not merely close.  The
same holds for scaling the values by 2^k.

Translation: the transform sums phases centred at an edge c of the input,
and for a dyadic offset every centred edge x - c, so every centred midpoint,
has the same bits, so only the final factor e^(-icz) differs (see the bound below); on a lattice input
the Horner sum reads only widths, gaps and jumps, which keep their bits, and
only its anchor factor differs.  The rearrangement reads only widths and values,
so it does not change at all.  The crest count does not see a piece split
in two.

Each symmetry is checked on two kinds of input: few segments of unrelated
widths, which take the segment loop of ``fourier``, and many segments of one to
four lattice cells, which take its lattice sum, on a step function also at
a z past the switch to its sum over the jumps.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from crestimate import (
    PiecewiseLinearFunction,
    StepFunction,
    bound_report,
    comb_example,
    count_crests,
    fourier,
    make_step,
    rearrangement,
)
from crestimate.transform import _lattice_sum

_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)
_z = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)

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


@st.composite
def lattice_functions(draw):
    """16 to 48 segments, each 1 to 4 cells of 1/32 wide, no two the same
    step value, so the lengths repeat and ``fourier`` sums by Horner's rule
    (the kernel in ``fourier_table`` is ``_lattice_sum``)."""
    widths = draw(st.lists(st.integers(1, 4), min_size=16, max_size=48))
    x = draw(st.integers(-1024, 1024)) / 32
    edges = [x]
    for w in widths:
        edges.append(edges[-1] + w / 32)
    levels = draw(st.lists(st.integers(1, 4096), min_size=len(edges), max_size=len(edges)))
    if draw(st.booleans()):
        # neighbours differ in parity, so no two pieces merge
        return make_step(edges, [(2 * m + k % 2) / 1024 for k, m in enumerate(levels[1:])])
    values = [0.0, *(m / 1024 for m in levels[1:-1]), 0.0]
    return PiecewiseLinearFunction(tuple(edges), tuple(values))


def _dilate(f, lam):
    """g(x) = f(lam x): the same values on edges divided by lam."""
    if isinstance(f, StepFunction):
        return make_step([t / lam for t in f.breakpoints], f.values)
    return PiecewiseLinearFunction(tuple(t / lam for t in f.nodes), f.node_values)


@_settings
@given(f=dyadic_functions(), k=st.integers(-12, 12), z=_z)
def test_q_is_covariant_under_dyadic_dilation(f, k, z):
    lam = math.ldexp(1.0, k)
    g = _dilate(f, lam)
    assert bound_report(g, z).q_value == bound_report(f, z / lam).q_value


def _past_switch(f, z):
    """A z past the switch of a step function f, where its lattice sum runs
    over the jumps."""
    return f.fourier_table[2][5] * (1.0 + z)


@_settings
@given(f=lattice_functions(), k=st.integers(-12, 12), z=_z)
def test_q_is_covariant_under_dyadic_dilation_on_a_lattice(f, k, z):
    """At the drawn z, and for a step function also where f, at z / lam,
    and g, at z, both sum over their jumps."""
    assert f.fourier_table[0] is _lattice_sum
    test_q_is_covariant_under_dyadic_dilation.hypothesis.inner_test(f, k, z)
    if isinstance(f, StepFunction):
        z = math.ldexp(_past_switch(f, z), k)
        test_q_is_covariant_under_dyadic_dilation.hypothesis.inner_test(f, k, z)


def _map_values(f, fn):
    if isinstance(f, StepFunction):
        return make_step(f.breakpoints, [fn(v) for v in f.values])
    return PiecewiseLinearFunction(f.nodes, tuple(fn(v) for v in f.node_values))


@_settings
@given(f=dyadic_functions(), k=st.integers(-40, 40), z=_z)
def test_q_is_invariant_under_dyadic_amplitude(f, k, z):
    g = _map_values(f, lambda v: math.ldexp(v, k))
    assert bound_report(g, z).q_value == bound_report(f, z).q_value


def _translate(f, offset):
    if isinstance(f, StepFunction):
        return make_step([t + offset for t in f.breakpoints], f.values)
    return PiecewiseLinearFunction(tuple(t + offset for t in f.nodes), f.node_values)


# With u = 2^-53: the centred sums S of f and its translate are the same
# float.  Each |fhat| is |S P| for a computed P = (cos cz, -sin cz); cos and
# sin within an ulp put |P| within sqrt(2) u of 1, the complex product adds
# at most sqrt(5) u relative, and abs (hypot) one ulp, 2 u.  So each
# |fhat| is within (sqrt 2 + sqrt 5 + 2) u < 5.7 u of |S|, and the two
# differ by less than 12 u relative; Q divides both by the same tail, one
# more rounding on each side.
_FHAT_TRANSLATE_ULPS = 12
_Q_TRANSLATE_ULPS = 14


@_settings
@given(f=dyadic_functions(), n=st.integers(-64, 64), e=st.integers(-5, 40), z=_z)
def test_fourier_magnitude_is_invariant_under_dyadic_translation(f, n, e, z):
    """Edges on 1/32 and |offset| <= 2^46 keep every x + offset and x - c exact."""
    g = _translate(f, math.ldexp(n, e))
    m_f, m_g = abs(fourier(f, z)), abs(fourier(g, z))
    assert abs(m_g - m_f) <= _FHAT_TRANSLATE_ULPS * 2.0**-53 * m_f


@_settings
@given(f=dyadic_functions(), n=st.integers(-64, 64), e=st.integers(-5, 40), z=_z)
def test_q_is_invariant_under_dyadic_translation(f, n, e, z):
    """Every width keeps its bits; both rearrangements read widths and values only."""
    g = _translate(f, math.ldexp(n, e))
    assert rearrangement(g).star == rearrangement(f).star
    q_f, q_g = bound_report(f, z).q_value, bound_report(g, z).q_value
    assert abs(q_g - q_f) <= _Q_TRANSLATE_ULPS * 2.0**-53 * q_f


@_settings
@given(f=lattice_functions(), n=st.integers(-64, 64), e=st.integers(-5, 40), z=_z)
def test_fourier_magnitude_is_invariant_under_dyadic_translation_on_a_lattice(f, n, e, z):
    assert f.fourier_table[0] is _lattice_sum
    test_fourier_magnitude_is_invariant_under_dyadic_translation.hypothesis.inner_test(f, n, e, z)
    if isinstance(f, StepFunction):
        z = _past_switch(f, z)
        test_fourier_magnitude_is_invariant_under_dyadic_translation.hypothesis.inner_test(f, n, e, z)


def test_comb_q_is_invariant_under_a_2_to_40_translation():
    f = comb_example(2)
    g = _translate(f, 2.0**40)
    z = 3.0 * math.pi
    q_f, q_g = bound_report(f, z).q_value, bound_report(g, z).q_value
    assert abs(q_g - q_f) <= _Q_TRANSLATE_ULPS * 2.0**-53 * q_f
    assert math.isclose(q_f, 2.013168484, rel_tol=1e-9)


@st.composite
def splits(draw):
    """A function and (segment index, 1..7 eighths) of an interior split point."""
    f = draw(dyadic_functions())
    return f, draw(st.integers(0, len(f.edges) - 2)), draw(st.integers(1, 7))


@_settings
@given(case=splits())
def test_crest_count_is_invariant_under_splitting_a_piece(case):
    """Split a piece at t0 + (t1 - t0) k/8 into two pieces of the same values.

    Step functions are given as raw breakpoints, which the constructor
    merges back; linear ones keep the extra node, whose interpolated value
    is exact on these dyadic data.
    """
    f, i, k = case
    t0, t1, y0, y1 = f.segment(i)
    x = t0 + (t1 - t0) * k / 8
    edges = (*f.edges[: i + 1], x, *f.edges[i + 1 :])
    if isinstance(f, StepFunction):
        g = make_step(edges, (*f.values[: i + 1], y0, *f.values[i + 1 :]))
    else:
        y = y0 + (y1 - y0) * k / 8
        g = PiecewiseLinearFunction(edges, (*f.node_values[: i + 1], y, *f.node_values[i + 1 :]))
        assert g(x) == f(x) == y
    assert count_crests(g) == count_crests(f)
