import csv
import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crestimate import (
    PiecewiseLinearFunction,
    StepFunction,
    ValidationError,
    comb_example,
    evaluate,
    from_samples,
    function_from_json_dict,
    function_to_json_dict,
    integrate,
    make_step,
    rearrangement,
)
from crestimate import piecewise
from crestimate.generators import random_step_function, rng_for
from crestimate.piecewise import samples_from_csv_text

TRIANGLE = PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))


def test_make_step_two_boxes():
    f = make_step([0, 1, 2, 3], [1, 0, 1])
    assert f.breakpoints == (0.0, 1.0, 2.0, 3.0)
    assert f.values == (1.0, 0.0, 1.0)
    assert f.total_integral == 2.0


def test_make_step_merges_equal_adjacent():
    f = make_step([0, 1, 2], [1, 1])
    assert f.breakpoints == (0.0, 2.0)
    assert f.values == (1.0,)


def test_make_step_trims_zero_ends():
    f = make_step([-1, 0, 1, 2, 5], [0, 2, 3, 0])
    assert f.breakpoints == (0.0, 1.0, 2.0)
    assert f.values == (2.0, 3.0)


def test_make_step_keeps_zero_function():
    f = make_step([0, 1, 2], [0, 0])
    assert f.is_zero
    assert f.values == (0.0,)


@pytest.mark.parametrize(
    "breakpoints, values, fragment",
    [
        ([0, 2], [-1], "nonnegative"),
        ([0, 0.5, 0.5], [1, 2], "strictly increasing"),
        ([2, 1], [1], "strictly increasing"),
        ([0, 1, 2], [1], r"len\(breakpoints\)"),
        ([0, math.inf], [1], "finite"),
        ([0, 1], [math.nan], "finite"),
    ],
)
def test_make_step_rejects_bad_input(breakpoints, values, fragment):
    with pytest.raises(ValidationError, match=fragment):
        make_step(breakpoints, values)


def test_evaluate_half_open_convention():
    box = make_step([0, 1], [1])
    assert evaluate(box, 0.0) == 1.0
    assert evaluate(box, 0.5) == 1.0
    assert evaluate(box, 1.0) == 0.0
    assert evaluate(box, -0.1) == 0.0


def test_evaluate_triangle_peak():
    assert evaluate(TRIANGLE, 1.0) == 1.0
    assert evaluate(TRIANGLE, 0.5) == 0.5
    assert evaluate(TRIANGLE, 2.0) == 0.0


def test_integrate_two_boxes_full_line():
    f = make_step([0, 1, 2, 3], [1, 0, 1])
    assert integrate(f, -10.0, 10.0) == 2.0
    assert integrate(f, -math.inf, math.inf) == 2.0


def test_integrate_comb_full_support():
    assert integrate(comb_example(1), 0.0, math.inf) == 5.0


@pytest.mark.parametrize("n", range(1, 9))
def test_comb_total_integral(n):
    assert comb_example(n).total_integral == 5.0 * n


def test_integrate_triangle_against_midpoint_rule():
    closed = integrate(TRIANGLE, 0.0, 2.0)
    assert closed == 1.0
    h = 1e-4
    steps = int(round(2.0 / h))
    midpoint = h * math.fsum(evaluate(TRIANGLE, (i + 0.5) * h) for i in range(steps))
    assert abs(closed - midpoint) < 1e-7


def test_integrals_near_the_largest_float_do_not_overflow():
    """A box of height 1e308 on [0, 2^-7] has mass 1e308 / 128 exactly, and
    a steep linear rise to 1e308 over 2^-7, whose slope is beyond float
    range, integrates to within a few ulps of the exact value at every cut."""
    box = make_step([0, 2**-7], [1e308])
    assert box.total_integral == integrate(box, 0, 1) == 1e308 / 128
    assert integrate(box, 2**-8, 1) == 1e308 / 256
    a, top = Fraction(2**-7), Fraction(1e308)
    ramp = PiecewiseLinearFunction([0, a, 2 * a, 3 * a], [0, 1e308, 1e308, 0])
    assert ramp.total_integral == 2 * top * a
    for cut in (2**-9, 3 * 2**-9, 0.01, 0.02):
        c = Fraction(cut)
        if c <= a:
            exact = top * c**2 / (2 * a)
        elif c <= 2 * a:
            exact = top * (c - a / 2)
        else:
            exact = top * (2 * a - (3 * a - c) ** 2 / (2 * a))
        assert math.isclose(integrate(ramp, 0, cut), exact, rel_tol=4 * 2.0**-53), cut


def test_evaluate_on_a_steep_segment_near_the_largest_float():
    """(x - t0)(y1 - y0) would overflow here although f(x) is a float; the
    fraction (x - t0)/(t1 - t0) times y1 - y0 does not, and elsewhere gives
    the bits of the plain interpolant."""
    steep = PiecewiseLinearFunction([0, 4], [0, 1e308])
    assert math.isclose(evaluate(steep, 3.0), 7.5e307, rel_tol=2.0**-52)
    assert evaluate(steep, 2.0**-1020) == 2.0**-1020 * 1e308 / 4
    assert evaluate(PiecewiseLinearFunction([0, 4], [0, 1e300]), 3.0) == 3.0 * 1e300 / 4


def test_integrate_swaps_and_negates_reversed_bounds():
    f = make_step([0, 1, 2], [2, 1])
    assert integrate(f, 2.0, 0.0) == -integrate(f, 0.0, 2.0)


def test_integrate_reads_the_table_and_no_segment_outside_its_bounds(monkeypatch):
    """Once a 10^4-piece function has its table, an integral over three
    pieces makes no pass over the segments and forms only its two partial
    pieces; the whole piece between them is a table term.  A flat piece is
    formed inline, so the step function calls no segment kernel at all and
    the piecewise-linear one, whose segments all slope, calls it twice."""
    step = make_step(range(10_001), [1 + k % 7 for k in range(10_000)])
    linear = PiecewiseLinearFunction(range(10_001), [1 + k % 7 for k in range(10_001)])
    assert integrate(step, 0.5, 9_999.5) == step.total_integral - 0.5 * (1 + 1 + 9_999 % 7)
    assert integrate(linear, 0.0, 10_000.0) == linear.total_integral
    passes, kernel_calls = [], []
    kernel = piecewise._segment_integral
    for cls in (StepFunction, PiecewiseLinearFunction):
        monkeypatch.setattr(cls, "segments", lambda self: passes.append(1) or ())
    monkeypatch.setattr(
        piecewise, "_segment_integral", lambda *args: kernel_calls.append(1) or kernel(*args)
    )
    assert integrate(step, 5_000.25, 5_002.5) == 0.75 * 3 + 4 + 0.5 * 5
    assert (len(passes), len(kernel_calls)) == (0, 0)
    # node k holds 1 + k % 7: 3, 4, 5 and 6 at 5,000 to 5,003
    assert integrate(linear, 5_000.25, 5_002.5) == 0.75 * 3.625 + 4.5 + 0.5 * 5.25
    assert (len(passes), len(kernel_calls)) == (0, 2)


def test_an_integral_short_of_a_mass_beyond_float_range_is_a_float():
    """The total is summed on first need, not with the table: only an
    integral that covers both boxes raises."""
    f = make_step([0, 1, 2, 3], [1e308, 0, 1e308])
    assert integrate(f, 0, 1.5) == 1e308
    with pytest.raises(OverflowError):
        f.total_integral
    with pytest.raises(OverflowError):
        integrate(f, 0, 3)


def test_a_step_piece_wider_than_the_largest_float_integrates_by_its_width():
    """The piece's width, 2e308, overflows, but a part of it is (hi - lo) y0.
    The segment kernel gave nan for a part starting 1.9e308 from the left
    edge: its value there, y0 + (lo - t0) * slope, is y0 + inf * 0.0."""
    f = make_step([-1e308, 1e308], [1])
    assert integrate(f, 0.9e308, 1e308) == 1e308 - 0.9e308 == 9.999999999999996e306
    assert integrate(f, -1e308, -0.9e308) == 9.999999999999996e306
    assert integrate(f, 0.0, 1.0) == 1.0
    assert integrate(f, -1e308, 1e308) == math.inf


def test_a_sloped_segment_wider_than_the_largest_float_reads_its_line():
    """t1 - t0 overflows, so the line is read on the halved ends.  A slope
    (y1 - y0) / (t1 - t0) would be 0.0 here: y0 everywhere inside, and nan
    (y0 + inf * 0.0) for a part far from the left edge."""
    assert evaluate(make_step([-1e308, 1e308], [1]), 0.9e308) == 1.0
    g = PiecewiseLinearFunction([-1e308, 1e308], [1, 2])
    assert evaluate(g, 0.0) == integrate(g, 0.0, 1.0) == 1.5
    assert math.isclose(integrate(g, 0.9e308, 1e308), 1.975e307, rel_tol=4 * 2.0**-53)
    assert integrate(g, -1e308, 1e308) == math.inf


def test_a_tiny_segment_reads_its_line():
    """(x - t0)(y1 - y0) would be 5e-401 here, which underflows to 0."""
    f = PiecewiseLinearFunction([0, 1e-200, 2e-200], [0, 1e-200, 0])
    assert evaluate(f, 0.5e-200) == 5e-201
    assert evaluate(f, 1.5e-200) == 5e-201


def _line_at(t0, t1, y0, y1, x) -> Fraction:
    t0, t1, y0, y1, x = map(Fraction, (t0, t1, y0, y1, x))
    return y0 + (x - t0) / (t1 - t0) * (y1 - y0)


_SMALLEST_NORMAL = 2.0**-1022
_FLOAT_MAX = 1.7976931348623157e308


@st.composite
def _segments_with_a_point(draw):
    """(t0, t1, y0, y1, x), t0 <= x < t1: a segment wider than the largest
    float, a tiny one, a steep one (width 1e-300, rise 1e10) or one whose
    ends and values are subnormal."""
    kind = draw(st.sampled_from(["wide", "tiny", "steep", "subnormal"]))
    if kind == "wide":
        t0 = -draw(st.floats(1e307, _FLOAT_MAX))
        t1 = draw(st.floats(1e307, _FLOAT_MAX))
        ys = st.floats(0.0, 1e300)
    elif kind == "tiny":
        t0 = draw(st.floats(-1e-200, 1e-200))
        t1 = t0 + draw(st.floats(1e-300, 1e-200))
        ys = st.floats(0.0, 1e-200)
    elif kind == "steep":
        t0 = draw(st.floats(-1e-290, 1e-290))
        t1 = t0 + 1e-300
        ys = st.floats(0.0, 1.0)
    else:
        t0 = draw(st.floats(0.0, _SMALLEST_NORMAL / 2))
        t1 = t0 + draw(st.floats(5e-324, _SMALLEST_NORMAL / 2))
        ys = st.floats(0.0, _SMALLEST_NORMAL)
    y0, y1 = draw(ys), draw(ys)
    if kind == "steep":
        y1 = y0 + 1e10
    if draw(st.booleans()):
        y0, y1 = y1, y0
    if not t0 < t1:
        t1 = math.nextafter(t0, math.inf)
    return t0, t1, y0, y1, draw(st.floats(t0, t1, exclude_max=True))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_segments_with_a_point())
def test_evaluate_is_within_a_few_ulps_of_the_exact_line(case):
    """Against the exact rational value, in ulps of the larger end value:
    where the line falls, y0 - (x - t0)/(t1 - t0) (y0 - y1) cancels, so the
    value itself may carry fewer digits.  On dyadic data the value is exact
    at the eighths of a segment, which
    test_properties.test_crest_count_is_invariant_under_splitting_a_piece
    asserts."""
    t0, t1, y0, y1, x = case
    y = evaluate(PiecewiseLinearFunction([t0, t1], [y0, y1]), x)
    assert abs(Fraction(y) - _line_at(*case)) <= 8 * Fraction(math.ulp(max(y0, y1)))


def test_integrate_additivity_exact_on_dyadic_functions():
    rng = rng_for(11, "additivity")
    for _ in range(200):
        f = random_step_function(rng)
        pts = sorted(rng.randint(-2048, 2048) / 32.0 for _ in range(3))
        a, b, c = pts
        assert integrate(f, a, b) + integrate(f, b, c) == integrate(f, a, c)


def test_integrate_additivity_linear_tolerance():
    rng = rng_for(12, "additivity-linear")
    for _ in range(50):
        a, b, c = sorted(rng.uniform(-1.0, 3.0) for _ in range(3))
        total = integrate(TRIANGLE, a, b) + integrate(TRIANGLE, b, c)
        assert abs(total - integrate(TRIANGLE, a, c)) <= 1e-12


def test_canonicalization_idempotent_and_evaluation_preserving():
    rng = rng_for(13, "canonical")
    for _ in range(100):
        n = rng.randint(1, 10)
        breakpoints = [rng.randint(-100, 100) / 8.0]
        for _ in range(n):
            breakpoints.append(breakpoints[-1] + rng.randint(1, 32) / 8.0)
        values = [float(rng.randint(0, 4)) for _ in range(n)]
        f = make_step(breakpoints, values)
        again = make_step(f.breakpoints, f.values)
        assert again == f
        for _ in range(20):
            x = rng.uniform(breakpoints[0] - 1.0, breakpoints[-1] + 1.0)
            if x in breakpoints:
                continue
            raw = 0.0
            for i in range(n):
                if breakpoints[i] <= x < breakpoints[i + 1]:
                    raw = values[i]
                    break
            assert evaluate(f, x) == raw


def test_from_samples_left_step_mapping():
    f = from_samples([0, 1, 2], [1, 0, 1], mode="left-step")
    assert evaluate(f, 0.0) == 1.0
    assert evaluate(f, 1.5) == 0.0
    # the final sample's box reuses the previous gap
    assert evaluate(f, 2.0) == 1.0
    assert evaluate(f, 2.5) == 1.0
    assert evaluate(f, 3.0) == 0.0


def test_from_samples_left_step_constant():
    f = from_samples([0, 1], [3, 3], mode="left-step")
    assert evaluate(f, 0.0) == 3.0
    assert evaluate(f, 1.0) == 3.0
    assert f.total_integral == 6.0


def test_from_samples_linear_triangle():
    f = from_samples([0, 1, 2], [0, 1, 0], mode="linear")
    assert isinstance(f, PiecewiseLinearFunction)
    assert f.nodes == (0.0, 1.0, 2.0)
    assert f.node_values == (0.0, 1.0, 0.0)


def test_from_samples_linear_pads_nonzero_endpoints():
    f = from_samples([0, 1, 2], [2, 1, 2], mode="linear")
    assert f.nodes == (-1.0, 0.0, 1.0, 2.0, 3.0)
    assert f.node_values == (0.0, 2.0, 1.0, 2.0, 0.0)


@pytest.mark.parametrize("samples", [7, 8, 1601, 1602])
def test_from_samples_linear_pad_is_the_median_gap_to_the_bit(samples):
    rng = rng_for(samples, "piecewise/median-pad")
    xs = [0.1]
    for _ in range(samples - 1):
        xs.append(xs[-1] + rng.uniform(0.001, 0.01))
    ys = [1.0 + rng.random() for _ in xs]
    pad = statistics.median(b - a for a, b in zip(xs, xs[1:]))
    f = from_samples(xs, ys, mode="linear")
    assert f.nodes[0] == xs[0] - pad
    assert f.nodes[-1] == xs[-1] + pad


def test_functions_and_rearrangements_are_immutable_values():
    step = make_step([0, 1, 1.5], [1, 1])
    linear = PiecewiseLinearFunction((0.0, 1.5), (1.0, 1.0))
    star = rearrangement(step)
    for obj, field in ((step, "values"), (linear, "nodes"), (star, "star")):
        with pytest.raises(AttributeError):
            setattr(obj, field, ())
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert step.fourier_table is step.fourier_table  # built once, then stored
    assert vars(step)["fourier_table"] is step.fourier_table  # a plain instance-dict read
    equal = make_step([0.0, 1.5], [1.0])
    assert step == equal and hash(step) == hash(equal)
    assert linear == PiecewiseLinearFunction([0, 1.5], [1, 1])
    assert hash(linear) == hash(PiecewiseLinearFunction([0, 1.5], [1, 1]))
    assert step != linear and step != make_step([0, 1.5], [2])
    assert star == rearrangement(equal)
    assert repr(step) == "StepFunction(breakpoints=(0.0, 1.5), values=(1.0,))"
    assert repr(linear) == "PiecewiseLinearFunction(nodes=(0.0, 1.5), node_values=(1.0, 1.0))"
    assert repr(star) == f"Rearrangement(star={star.star!r})"


@pytest.mark.parametrize(
    "xs, ys, fragment",
    [
        ([1, 0], [1, 1], "strictly increasing"),
        ([0, 1], [1, -1], "nonnegative"),
        ([0], [1], "at least two"),
        ([0, 1], [1], r"len\(xs\)"),
    ],
)
def test_from_samples_rejects_bad_input(xs, ys, fragment):
    with pytest.raises(ValidationError, match=fragment):
        from_samples(xs, ys)


def test_from_samples_unknown_mode():
    with pytest.raises(ValidationError, match="unknown sampling mode"):
        from_samples([0, 1], [1, 1], mode="spline")


def test_linear_function_validation():
    with pytest.raises(ValidationError, match="strictly increasing"):
        PiecewiseLinearFunction((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValidationError, match="at least two nodes"):
        PiecewiseLinearFunction((0.0,), (1.0,))
    with pytest.raises(ValidationError, match="nonnegative"):
        PiecewiseLinearFunction((0.0, 1.0), (0.0, -1.0))


def test_json_round_trip_step():
    f = make_step([0, 1, 2, 3], [1, 0, 2])
    assert function_from_json_dict(function_to_json_dict(f)) == f


def test_json_round_trip_linear():
    assert function_from_json_dict(function_to_json_dict(TRIANGLE)) == TRIANGLE


@pytest.mark.parametrize(
    "obj, fragment",
    [
        ({}, "missing field 'type'"),
        ({"type": "step", "breakpoints": [0, 1]}, "missing field 'values'"),
        ({"type": "linear", "nodes": [0, 1]}, "missing field 'node_values'"),
        ({"type": "spline"}, "unknown function type"),
        ({"type": "step", "breakpoints": "x", "values": [1]}, "list of numbers"),
        ({"type": "step", "breakpoints": [0, "a"], "values": [1]}, "list of numbers"),
        ([1, 2], "must be an object"),
    ],
)
def test_function_from_json_diagnostics(obj, fragment):
    with pytest.raises(ValidationError, match=fragment):
        function_from_json_dict(obj)


def test_csv_parsing_with_and_without_header():
    with_header = "x,y\n0,1\n1,0\n2,1\n"
    without = "0,1\n1,0\n2,1\n"
    assert samples_from_csv_text(with_header) == samples_from_csv_text(without)
    assert samples_from_csv_text(without) == ([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])


def test_csv_parsing_errors():
    with pytest.raises(ValidationError, match="two columns"):
        samples_from_csv_text("0,1,2\n")
    with pytest.raises(ValidationError, match="no samples"):
        samples_from_csv_text("x,y\n")
    with pytest.raises(ValidationError, match="line 2"):
        samples_from_csv_text("0,1\nfoo,bar\n")
    # one header at most, and the line numbers count the blank rows
    with pytest.raises(ValidationError, match="CSV line 2: could not parse"):
        samples_from_csv_text("x,y\nx,y\n0,1\n")
    with pytest.raises(ValidationError, match="CSV line 4: could not parse"):
        samples_from_csv_text("\nx,y\n \nx,y\n0,1\n")
    # a quoted field spanning a newline: the row after it is on line 4
    with pytest.raises(ValidationError, match="CSV line 4: could not parse"):
        samples_from_csv_text('0,1\n"1\n",2\nfoo,bar\n')
    # the reader's own errors name the line it stopped on: a field past its
    # size limit, and a NUL byte, which the reader refuses before Python 3.11
    with pytest.raises(ValidationError, match="CSV line 2: field larger than field limit"):
        samples_from_csv_text("0,1\n1," + "2" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ValidationError, match="CSV line 2: "):
        samples_from_csv_text("0,1\n\x00,2\n")


def test_csv_parsing_skips_blank_rows():
    assert samples_from_csv_text("0,1\n\n , \n1,2\n") == ([0.0, 1.0], [1.0, 2.0])


@pytest.mark.parametrize(
    "text",
    [
        "x,y\n0,1\n\n1,2\n",
        "x,y\n \n0,1\n\t,\t\n1,2\n",
        "\n0,1\n , , \n1,2\n\n",  # whitespace in three cells is a blank row, not three columns
        "x , y\r\n0,1\r\n   \r\n1,2\r\n",
        "\nx,y\n0,1\n1,2\n",  # the header is the first nonblank row, not line 1
    ],
)
def test_csv_parsing_skips_blank_whitespace_and_header_rows(text):
    assert samples_from_csv_text(text) == ([0.0, 1.0], [1.0, 2.0])


@pytest.mark.parametrize("text, line", [("0,1\n1,2,3\n", 2), ("x,y\n\n0,1,\n", 3), (" ,1, \n", 1)])
def test_csv_parsing_rejects_a_three_column_row(text, line):
    with pytest.raises(ValidationError, match=f"CSV line {line}: expected two columns, got 3"):
        samples_from_csv_text(text)


def test_constructors_reject_missing_or_mismatched_values():
    with pytest.raises(ValidationError, match="a step function needs at least one piece"):
        make_step([0.0], [])
    with pytest.raises(ValidationError, match=r"len\(nodes\) == len\(node_values\), got 2 != 1"):
        PiecewiseLinearFunction([0, 1], [1])
