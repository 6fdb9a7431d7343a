import math

import pytest

from crestimate import (
    HALF_PI_SQRT_10,
    PI_SQRT_10,
    PiecewiseLinearFunction,
    ValidationError,
    ZeroFunctionError,
    bound_report,
    check_decreasing_bound,
    check_one_crest_bound,
    comb_example,
    comb_resonance,
    cosine_transform,
    count_crests,
    crest_lower_bound,
    default_z_grid,
    distribution,
    fourier,
    make_step,
    sine_transform,
    window_bounds,
)
from crestimate.bounds import CERTIFICATE_GUARD, certified_crests, grid_csv_lines
from crestimate.generators import rng_for

from oracles import hardy_operator, rearrangement_integral
from quadrature_oracles import fourier_quadrature_oracle

BOX = make_step([0, 1], [1])
TRIANGLE = PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))


def test_constants_are_computed_not_hardcoded():
    assert PI_SQRT_10 == math.pi * math.sqrt(10.0)
    assert HALF_PI_SQRT_10 == 0.5 * math.pi * math.sqrt(10.0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_comb_q_ratio_at_odd_multiples(n):
    z = 101 * math.pi
    report = bound_report(comb_example(n), z)
    expected = math.sqrt(10.0) * n / math.pi
    assert math.isclose(report.q_value, expected, rel_tol=1e-9)
    assert report.tail_integral == 1.0 / z
    assert report.crest_count == 5 * n


def test_bound_report_box():
    report = bound_report(BOX, 0.5)
    assert report.tail_integral == 1.0
    expected = abs(2.0 * math.sin(0.25) / 0.5) / PI_SQRT_10
    assert math.isclose(report.q_value, expected, rel_tol=1e-12)
    assert report.q_value <= 1.0 / PI_SQRT_10 + 1e-15
    oracle = abs(fourier_quadrature_oracle(BOX, 0.5, 1e-10))
    assert math.isclose(report.transform_magnitude, oracle, rel_tol=1e-8)


def test_bound_report_internal_consistency():
    rng = rng_for(51, "qreport")
    from crestimate.generators import random_step_function

    for _ in range(100):
        f = random_step_function(rng)
        z = rng.uniform(0.01, 100.0)
        r = bound_report(f, z)
        assert math.isclose(
            r.q_value * PI_SQRT_10 * r.tail_integral, r.transform_magnitude, rel_tol=1e-12
        )
        assert r.transform_magnitude <= r.bound * (1.0 + 1e-9)


def test_bound_report_validation():
    with pytest.raises(ValidationError, match="z must be positive"):
        bound_report(BOX, 0.0)
    with pytest.raises(ZeroFunctionError):
        bound_report(make_step([0, 1], [0]), 1.0)


def test_bound_report_where_the_tail_underflows():
    """f* = 1e-30 on [0, 1): the tail 1e-30 / z underflows to 0 at z = 1e299,
    so the bound is not a positive float and no Q is divided out."""
    with pytest.raises(OverflowError, match="z = 1e[+]299 is 0.0, not a positive float"):
        bound_report(make_step([0, 1], [1e-30]), 1e299)


def test_a_subnormal_q_denominator_is_refused():
    """f* = 1e-30 on [0, 1): from z about 1e292 on, the tail is subnormal and
    rounds by up to 50%, enough to lift Q above 2/(pi sqrt 10), the most any
    box reaches."""
    with pytest.raises(OverflowError, match="z = 1e[+]292 is 9.83e-322, not a normal float"):
        crest_lower_bound(make_step([0, 1], [1e-30]), default_z_grid(1e292, 4e293, 201, odd_pi_multiples=False))


def test_decreasing_bound_box_at_pi():
    lhs, rhs = check_decreasing_bound(BOX, math.pi)
    assert math.isclose(lhs, 2.0 / math.pi, rel_tol=1e-14)
    assert math.isclose(rhs, math.sqrt(10.0) / 2.0, rel_tol=1e-14)
    assert lhs <= rhs


def test_decreasing_bound_small_z_saturates():
    lhs, rhs = check_decreasing_bound(BOX, 1e-6)
    assert abs(lhs - 1.0) < 1e-9
    assert rhs == HALF_PI_SQRT_10


def test_decreasing_bound_two_steps_with_oracle():
    f = make_step([0, 1, 2], [2, 1])
    lhs, rhs = check_decreasing_bound(f, 2.0)
    assert lhs <= rhs
    oracle = abs(fourier_quadrature_oracle(f, 2.0, 1e-10))
    assert math.isclose(lhs, oracle, rel_tol=1e-8)


def test_decreasing_bound_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="nonincreasing"):
        check_decreasing_bound(make_step([0, 1, 2], [1, 2]), 1.0)
    with pytest.raises(ValidationError, match="support start at 0"):
        check_decreasing_bound(make_step([1, 2], [1]), 1.0)


def test_one_crest_bound_triangle():
    lhs, rhs, b = check_one_crest_bound(TRIANGLE, 1.0)
    assert b == 1.0
    assert rhs == HALF_PI_SQRT_10 * 1.0  # the window covers the whole support
    assert lhs <= rhs


def test_one_crest_bound_translated_box():
    shifted = make_step([5, 6], [1])
    lhs, rhs, b = check_one_crest_bound(shifted, 4.0)
    assert b == 5.0
    assert math.isclose(lhs, abs(fourier(BOX, 4.0)), rel_tol=1e-12)
    # window [b - 1/4, b + 1/4] overlaps the box only on [5, 5.25]
    assert math.isclose(rhs, HALF_PI_SQRT_10 * 0.25, rel_tol=1e-14)
    assert lhs <= rhs


def test_one_crest_window_dominates_halfline_window_for_decreasing():
    f = make_step([0, 1, 2], [2, 1])
    for z in (0.5, 1.0, 4.0):
        _, rhs_one, b = check_one_crest_bound(f, z)
        _, rhs_half = check_decreasing_bound(f, z)
        assert b == 0.0
        assert rhs_one >= rhs_half - 1e-12


def test_one_crest_bound_rejects_multiple_crests():
    with pytest.raises(ValidationError, match="exactly once"):
        check_one_crest_bound(make_step([0, 1, 2, 3], [1, 0, 1]), 1.0)


def test_comb_example_structure():
    f = comb_example(1)
    assert len(f.values) == 9
    assert f.support_min == 0.0 and f.support_max == 9.0
    assert count_crests(comb_example(2)) == 10
    with pytest.raises(ValidationError):
        comb_example(0)
    with pytest.raises(ValidationError):
        comb_example(-3)


def test_comb_resonance_records_both_points():
    res = comb_resonance(1, l=50)
    assert math.isclose(res.odd.q_value, res.peak_ratio_expected, rel_tol=1e-9)
    assert res.even.transform_magnitude < 1e-10
    assert res.odd.z == 101 * math.pi
    assert res.even.z == 100 * math.pi
    assert "vanishes" in res.note
    with pytest.raises(ValidationError):
        comb_resonance(1, l=0)


def test_default_z_grid_contains_odd_pi_multiples():
    grid = default_z_grid()
    assert grid == sorted(grid)
    for k in (1, 3, 101, 317):
        assert k * math.pi in grid
    assert 2 * math.pi not in grid
    with pytest.raises(ValidationError):
        default_z_grid(z_min=0.0)
    with pytest.raises(ValidationError):
        default_z_grid(count=0)
    assert len(grid) == 671
    assert len({k * math.pi for k in range(1, 319, 2)} & set(grid)) == 159


def test_default_z_grid_counts_the_odd_pi_multiples_before_building_them():
    # one multiple per 2 pi of z_max: 1.6e299 of them, so the count must refuse it at once
    with pytest.raises(ValidationError, match=r"1\.59e\+299 odd multiples of pi"):
        default_z_grid(1e-2, 1e300)
    assert default_z_grid(1e6, 1e6 + 7.0, count=1) == [1e6, 318311 * math.pi]


def test_certificate_comb1():
    cert = crest_lower_bound(comb_example(1), [1.0, 51 * math.pi, 200.0])
    assert math.isclose(cert.best_q, math.sqrt(10.0) / math.pi, rel_tol=1e-9)
    assert cert.best_z == 51 * math.pi
    assert cert.crest_lower_bound == 2
    assert cert.root_lower_bound == 1
    assert cert.derived_root_bound == 3
    assert cert.crest_lower_bound <= count_crests(comb_example(1))


def test_certificate_box_is_trivial():
    cert = crest_lower_bound(BOX, default_z_grid())
    assert cert.best_q < 1.0
    assert math.isclose(cert.best_q, 2.0 / PI_SQRT_10, rel_tol=1e-9)
    assert cert.crest_lower_bound == 1
    assert cert.root_lower_bound == 0
    assert cert.derived_root_bound == 1


def test_certificate_comb2():
    cert = crest_lower_bound(comb_example(2), [0.7, 101 * math.pi])
    assert math.isclose(cert.best_q, 2.0 * math.sqrt(10.0) / math.pi, rel_tol=1e-9)
    assert cert.crest_lower_bound == 3
    assert cert.root_lower_bound == 3
    assert cert.derived_root_bound == 5


def test_certificate_validation():
    with pytest.raises(ValidationError, match="must not be empty"):
        crest_lower_bound(BOX, [])
    with pytest.raises(ValidationError, match="positive"):
        crest_lower_bound(BOX, [1.0, -2.0])
    with pytest.raises(ZeroFunctionError):
        crest_lower_bound(make_step([0, 1], [0]), [1.0])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_z_is_rejected(bad):
    with pytest.raises(ValidationError, match="positive and finite"):
        crest_lower_bound(BOX, [1.0, bad])
    with pytest.raises(ValidationError, match="positive and finite"):
        bound_report(BOX, bad)
    with pytest.raises(ValidationError, match="z_max < inf"):
        default_z_grid(bad, 10.0)


@pytest.mark.parametrize("z", [5e-324, 1e308])
def test_refinement_at_the_ends_of_the_float_range(z):
    # the bracket around a lone grid point is [z/2, 2z]: 0 for the smallest
    # subnormal, inf for z near the largest float; both must be rejected
    with pytest.raises(ValidationError, match="positive and finite"):
        crest_lower_bound(BOX, [z], refine_depth=1)


def test_comb_resonance_rejects_l_whose_points_coincide():
    with pytest.raises(ValidationError, match="same float"):
        comb_resonance(1, l=2**60)


def quadrature_oracle(f, z):
    return fourier_quadrature_oracle(f, z, 1e-9)


@pytest.mark.parametrize(
    "call",
    [
        window_bounds,
        sine_transform,
        cosine_transform,
        check_decreasing_bound,
        check_one_crest_bound,
        fourier,
        quadrature_oracle,
        hardy_operator,
        distribution,
        rearrangement_integral,
    ],
)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_public_entry_points_reject_non_finite_arguments(call, bad):
    if bad == math.inf and call in (hardy_operator, distribution, rearrangement_integral):
        # inf has a meaning there: the total mass, or an empty super-level set
        assert call(BOX, bad) == (0.0 if call is distribution else 1.0)
        return
    with pytest.raises(ValidationError, match="positive|finite"):
        call(BOX, bad)


def test_certified_crests_guard():
    assert certified_crests(0.0) == 1
    assert certified_crests(1.0) == 1
    assert certified_crests(1.0 + 0.5 * CERTIFICATE_GUARD) == 1
    assert certified_crests(1.0 + 2.0 * CERTIFICATE_GUARD) == 2
    assert certified_crests(2.5) == 3


def test_certificate_leftmost_tie_break():
    # every odd multiple of pi gives the same Q for the comb
    cert = crest_lower_bound(comb_example(1), [3 * math.pi, math.pi, 5 * math.pi])
    assert cert.best_z == math.pi


def test_refinement_only_improves():
    base = crest_lower_bound(TRIANGLE, default_z_grid(count=64))
    refined = crest_lower_bound(TRIANGLE, default_z_grid(count=64), refine_depth=3)
    assert refined.best_q >= base.best_q
    assert len(refined.grid) > len(base.grid)


def test_grid_csv_schema():
    cert = crest_lower_bound(BOX, [1.0, 2.0])
    lines = grid_csv_lines(cert.grid)
    assert lines[0] == "z,abs_fhat,tail_integral,bound,q"
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 5
