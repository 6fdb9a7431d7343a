import math
from fractions import Fraction

import pytest

from crestimate import (
    PiecewiseLinearFunction,
    Rearrangement,
    StepFunction,
    ValidationError,
    comb_example,
    distribution,
    evaluate,
    integrate,
    lorentz_lambda_norm,
    make_step,
    rearrangement,
)
from crestimate.generators import random_interval, random_step_function, rng_for

from oracles import rearrangement_integral

TRIANGLE = PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
TWO_BOXES = make_step([0, 1, 2, 3], [1, 0, 1])


def test_distribution_two_boxes():
    assert distribution(TWO_BOXES, 0.5) == 2.0
    assert distribution(TWO_BOXES, 1.5) == 0.0


def test_distribution_triangle_with_grid_oracle():
    exact = distribution(TRIANGLE, 0.5)
    assert exact == 1.0  # the interval (0.5, 1.5)
    h = 1e-5
    count = sum(1 for i in range(int(2.0 / h)) if evaluate(TRIANGLE, (i + 0.5) * h) > 0.5)
    assert abs(exact - count * h) < 1e-3


def _random_linear(rng, offset):
    """Nodes and values off every dyadic grid, the nodes shifted by up to offset.

    A fifth of the values are zero and about a seventh repeat the one before,
    so zero gaps and plateaus occur.
    """
    x = rng.uniform(-offset, offset)
    nodes, vals = [], []
    for _ in range(rng.randint(2, 30)):
        nodes.append(x)
        x += rng.uniform(1e-3, 2.0)
        roll = rng.random()
        if roll < 0.2:
            vals.append(0.0)
        elif roll < 0.35 and vals:
            vals.append(vals[-1])
        else:
            vals.append(rng.uniform(0.0, 5.0))
    return PiecewiseLinearFunction(tuple(nodes), tuple(vals))


def _exact_measure_above(f, level):
    """|{f > level}| in rationals, the floats of f and level taken as exact."""
    level = Fraction(level)
    total = Fraction(0)
    for segment in f.segments():
        t0, t1, y0, y1 = map(Fraction, segment)
        lo, hi = min(y0, y1), max(y0, y1)
        if lo > level:
            total += t1 - t0
        elif hi > level:
            total += (hi - level) * (t1 - t0) / (hi - lo)
    return total


def test_linear_distribution_within_six_roundings_of_the_exact_measure():
    """distribution(f, lam) is within 6u relative of the exact measure, u = 2^-53.

    A crossing segment adds ``(hi - lam) * (w / (hi - lo))``: the width
    ``w = t1 - t0``, ``hi - lo``, ``hi - lam``, the quotient and the product
    each round once, so the term is within (1 + u)^5 - 1 relative of its
    exact value.  A segment wholly above adds w, rounded once.  Every term
    is positive, so their exact sum carries the same relative error, and
    fsum rounds it once more: (1 + u)^6 - 1 = 6u + O(u^2) in all, which is
    the bound applied.  None of it scales with |t0|, so offsets up to 2^30
    do not loosen it.
    """
    rng = rng_for(26, "distribution/exact")
    bound = (1 + Fraction(1, 2**53)) ** 6 - 1
    for _ in range(300):
        f = _random_linear(rng, 2.0**30)
        for level in sorted(set(f.node_values) - {0.0}):
            exact = _exact_measure_above(f, level)
            assert abs(Fraction(distribution(f, level)) - exact) <= bound * exact


@pytest.mark.parametrize(
    "nodes, values",
    [
        ((0.0, 1.0), (1e-310, 0.0)),
        ((0.0, 1.0, 3.0), (0.0, 4e-310, 1e-310)),
        ((0.0, 2.5, 3.0, 7.0), (5e-324, 0.0, 3e-323, 0.0)),
        ((0.0, 1.0, 2.0, 2.5), (0.0, 1.0, 1e-310, 0.0)),
    ],
    ids=["falling", "two-levels", "smallest-subnormal", "normal-peak"],
)
def test_a_subnormal_rise_is_measured_and_rearranged(nodes, values):
    """Where w / (hi - lo) overflows, the crossing term is (hi - lam) / (hi -
    lo) * w: distribution stays within six roundings of the exact measure,
    at every node value and between them, and f* has a node at each level
    at the measure distribution gives."""
    f = PiecewiseLinearFunction(nodes, values)
    bound = (1 + Fraction(1, 2**53)) ** 6 - 1
    levels = sorted(set(values) - {0.0})
    star = rearrangement(f).star
    for level in levels[:-1]:
        measure = distribution(f, level)
        exact = _exact_measure_above(f, level)
        assert abs(Fraction(measure) - exact) <= bound * exact
        assert star.nodes[star.node_values.index(level)] == measure
    for level in (lo / 2 + hi / 2 for lo, hi in zip([0.0, *levels], levels)):
        if level > 0.0:  # nothing lies between 0 and the smallest subnormal
            exact = _exact_measure_above(f, level)
            assert abs(Fraction(distribution(f, level)) - exact) <= bound * exact
    exact = _exact_measure_above(f, 0.0)
    assert abs(Fraction(star.nodes[-1]) - exact) <= bound * exact


def test_distribution_rejects_nonpositive_alpha():
    with pytest.raises(ValidationError, match="alpha"):
        distribution(TWO_BOXES, 0.0)


def test_rearrangement_ignores_translation():
    star = rearrangement(make_step([2, 3], [1])).star
    assert star == make_step([0, 1], [1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rearrangement_of_comb_is_one_box(n):
    star = rearrangement(comb_example(n)).star
    assert star == make_step([0, 5 * n], [1])


def test_rearrangement_of_triangle_is_exact_line():
    star = rearrangement(TRIANGLE).star
    assert isinstance(star, PiecewiseLinearFunction)
    assert star.nodes == (0.0, 2.0)
    assert star.node_values == (1.0, 0.0)


def test_rearrangement_linear_plateau():
    f = PiecewiseLinearFunction((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 1.0, 0.0))
    star = rearrangement(f).star
    assert star.nodes == (0.0, 1.0, 3.0)
    assert star.node_values == (1.0, 1.0, 0.0)


def test_rearrangement_linear_two_bumps():
    m_shape = PiecewiseLinearFunction(
        (0.0, 1.0, 2.0, 3.0, 4.0), (0.0, 1.0, 0.0, 1.0, 0.0)
    )
    star = rearrangement(m_shape).star
    assert star.nodes == (0.0, 4.0)
    assert star.node_values == (1.0, 0.0)


def test_rearrangement_is_idempotent_on_its_output():
    star = rearrangement(TRIANGLE).star
    assert rearrangement(star).star == star


def test_rearrangement_integral_comb_tail():
    for n in (1, 2):
        f = comb_example(n)
        for z in (1.0, 7.3, 101 * math.pi):
            assert rearrangement_integral(f, 1.0 / z) == 1.0 / z


def test_rearrangement_integral_saturates_to_total():
    rng = rng_for(21, "saturation")
    for _ in range(50):
        f = random_step_function(rng)
        support = f.support_max - f.support_min
        assert rearrangement_integral(f, support + 1.0) == f.total_integral
    for _ in range(300):
        f = _random_linear(rng, 2.0**30)
        assert integrate(f, -math.inf, math.inf) == f.total_integral
        assert rearrangement_integral(f, math.inf) == rearrangement(f).star.total_integral


def test_tail_before_a_star_that_starts_after_zero_is_zero():
    # rearrangement() always starts f* at 0; a star built by hand need not
    step = Rearrangement(make_step([1, 2], [3]))
    linear = Rearrangement(PiecewiseLinearFunction((1.0, 3.0), (2.0, 0.0)))
    for tails in (step, linear):
        assert tails.integral_up_to(0.0) == 0.0
        assert tails.integral_up_to(0.5) == 0.0
        assert tails.integral_up_to(1.0) == 0.0
    assert step.integral_up_to(1.5) == 1.5
    assert linear.integral_up_to(2.0) == 1.5


def test_rearrangement_integral_triangle():
    exact = rearrangement_integral(TRIANGLE, 1.0)
    assert exact == 0.75  # integral of 1 - x/2 over [0, 1]
    h = 1e-5
    star = rearrangement(TRIANGLE).star
    midpoint = h * math.fsum(
        evaluate(star, (i + 0.5) * h) for i in range(int(round(1.0 / h)))
    )
    assert abs(exact - midpoint) < 1e-8


def test_rearrangement_integral_rejects_nonpositive_t():
    with pytest.raises(ValidationError, match="t must be positive"):
        rearrangement_integral(TRIANGLE, 0.0)


def test_equimeasurability_exact():
    f_rng = rng_for(22, "equimeasurable/functions")
    a_rng = rng_for(22, "equimeasurable/alphas")
    for _ in range(200):
        f = random_step_function(f_rng)
        star = rearrangement(f).star
        for _ in range(20):
            alpha = a_rng.randint(1, 9 * 1024) / 1024.0
            assert distribution(f, alpha) == distribution(star, alpha)


def test_norm_preservation_exact():
    rng = rng_for(23, "norm-preservation")
    for _ in range(200):
        f = random_step_function(rng)
        assert rearrangement(f).star.total_integral == f.total_integral


def test_superlevel_set_integral_bound_exact():
    f_rng = rng_for(24, "set-bound/functions")
    e_rng = rng_for(24, "set-bound/intervals")
    for _ in range(200):
        f = random_step_function(f_rng)
        star = rearrangement(f).star
        a, b = random_interval(e_rng, f)
        assert integrate(f, a, b) <= integrate(star, 0.0, b - a)


def test_rearrangement_is_structurally_nonincreasing():
    rng = rng_for(25, "monotone")
    for _ in range(100):
        star = rearrangement(random_step_function(rng)).star
        assert all(a >= b for a, b in zip(star.values, star.values[1:]))
        assert star.support_min == 0.0


def test_lorentz_norm_box_weight():
    box = make_step([0, 1], [1])
    assert lorentz_lambda_norm(box, make_step([0, 10], [1]), 2.0) == 1.0


def test_lorentz_norm_triangle_tail_weight():
    weight = make_step([1, 10], [1])
    value = lorentz_lambda_norm(TRIANGLE, weight, 1.0)
    assert abs(value - 0.25) < 1e-9


def test_lorentz_norm_comb():
    assert lorentz_lambda_norm(comb_example(1), make_step([0, 5], [1]), 1.0) == 5.0


def test_lorentz_norm_on_a_steep_segment_near_the_largest_float():
    """f* holds 1e308 on [0, 2^-7] and falls to 0 over 2^-6, a slope beyond
    float range; the weight 1 on [0, 2^-7 + 2^-9] sees the plateau and the
    top of the fall, (2^-7 + 2^-9 - 2^-13) * 1e308 (the 1e-300 tail adds
    nothing at this scale)."""
    profile = PiecewiseLinearFunction([0, 2**-7, 2**-6, 3 * 2**-7], [0, 1e308, 1e308, 0])
    weight = make_step([0, 2**-7 + 2**-9, 1], [1, 1e-300])
    exact = (2**-7 + 2**-9 - 2**-13) * 1e308
    assert math.isclose(lorentz_lambda_norm(profile, weight, 1.0), exact, rel_tol=1e-12)


def test_lorentz_norm_of_the_zero_function():
    assert lorentz_lambda_norm(make_step([0, 1], [0]), make_step([0, 5], [1]), 2.0) == 0.0


def test_lorentz_norm_validation():
    box = make_step([0, 1], [1])
    for bad_p in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="p must be positive"):
            lorentz_lambda_norm(box, make_step([0, 1], [1]), bad_p)
    with pytest.raises(ValidationError, match="step function"):
        lorentz_lambda_norm(box, TRIANGLE, 1.0)


@pytest.mark.parametrize(
    "star",
    [
        PiecewiseLinearFunction([0, 1], [1, 1]),
        PiecewiseLinearFunction([0, 2], [2, 1]),
        rearrangement(random_step_function(rng_for(26, "fixed point"))).star,
    ],
    ids=["linear-box", "linear-end-jump", "step"],
)
def test_a_dyadic_star_is_its_own_rearrangement(star):
    """A nonincreasing function on [0, oo) is its own f*, a positive end
    value included: f* keeps the jump to 0 where f has one."""
    assert rearrangement(star).star == star


def test_a_band_that_adds_no_measure_adds_no_breakpoint():
    """The band of 1 on [0, 1) rounds away against the band of 2 on [1, 1e20),
    whose width is 1e20 as a float: f* is that one band, its mass within an
    ulp of f's."""
    f = make_step([0, 1, 1e20], [1, 2])
    star = rearrangement(f).star
    assert star == make_step([0, 1e20], [2])
    assert abs(star.total_integral - f.total_integral) <= math.ulp(f.total_integral)


def test_zero_function_rearranges_to_zero():
    star = rearrangement(make_step([0, 1], [0])).star
    assert isinstance(star, StepFunction)
    assert star.is_zero
