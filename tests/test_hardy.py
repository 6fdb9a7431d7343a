import math

import mpmath
import pytest

from crestimate import (
    ConvergenceError,
    PiecewiseLinearFunction,
    ValidationError,
    ZeroFunctionError,
    fourier,
    fourier_weighted_norm,
    hardy_chain_report,
    hardy_lhs,
    lorentz_lambda_norm,
    make_step,
)
from crestimate import hardy
from crestimate.generators import random_decreasing_step, random_weight, rng_for
from crestimate.quadrature import gauss_kronrod_adaptive

from oracles import hardy_operator
from quadrature_oracles import hardy_lhs_with_error

BOX = make_step([0, 1], [1])
# ground truth for ||fhat(box)||_{L^2(chi[0,1])}, frozen from two independent
# high-precision quadratures (1e-10 and better) of int_0^1 (2 sin(z/2)/z)^2 dz
BOX_WEIGHTED_NORM = 0.9862914135642901
G_STAR = PiecewiseLinearFunction((0.0, 2.0), (1.0, 0.0))


def test_hardy_operator_values():
    assert hardy_operator(BOX, 0.5) == 0.5
    assert hardy_operator(BOX, 7.0) == 1.0
    f = make_step([0, 1, 2], [2, 1])
    assert hardy_operator(f, 1.5) == 2.5


def test_hardy_operator_validation():
    with pytest.raises(ValidationError, match="z must be positive"):
        hardy_operator(BOX, 0.0)
    with pytest.raises(ValidationError, match=r"\[0, oo\)"):
        hardy_operator(make_step([-1, 1], [1]), 1.0)


def test_hardy_lhs_saturated_inner_integral():
    # for z in (0, 1], 1/z >= 1, so the inner integral is identically 1
    assert abs(hardy_lhs(BOX, make_step([0, 1], [1]), 2.0) - 1.0) < 1e-9


def test_hardy_lhs_log_kernel():
    value = hardy_lhs(BOX, make_step([1, 2], [1]), 1.0)
    assert math.isclose(value, math.log(2.0), rel_tol=1e-8)


def test_hardy_lhs_printed_form_agrees():
    u = make_step([1, 2], [1])
    a = hardy_lhs(BOX, u, 1.0)
    b, _ = hardy_lhs_with_error(BOX, u, 1.0, "printed")
    assert math.isclose(a, b, rel_tol=1e-6)


def test_hardy_lhs_substitution_identity_random():
    f_rng = rng_for(61, "hardy/f")
    u_rng = rng_for(61, "hardy/u")
    for i in range(30):
        f = random_decreasing_step(f_rng, max_pieces=6, max_width_units=32)
        u = random_weight(u_rng, max_pieces=4)
        q = (0.5, 1.0, 2.0, 3.0)[i % 4]
        a = hardy_lhs(f, u, q)
        b, _ = hardy_lhs_with_error(f, u, q, "printed")
        assert math.isclose(a, b, rel_tol=1e-6)


def test_hardy_lhs_validation():
    for bad_q in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="q must be positive"):
            hardy_lhs(BOX, make_step([0, 1], [1]), bad_q)
    with pytest.raises(ZeroFunctionError):
        hardy_lhs(make_step([0, 1], [0]), make_step([0, 1], [1]), 1.0)
    with pytest.raises(ValidationError, match="nonincreasing"):
        hardy_lhs(make_step([0, 1, 2], [1, 2]), make_step([0, 1], [1]), 1.0)
    # q < 1 requires the weight to keep clear of the origin
    with pytest.raises(ValidationError, match="q < 1"):
        hardy_lhs(BOX, make_step([0, 1], [1]), 0.5)


def test_fourier_weighted_norm_frozen_value():
    value = fourier_weighted_norm(BOX, make_step([0, 1], [1]), 2.0)
    assert math.isclose(value, BOX_WEIGHTED_NORM, rel_tol=1e-6)


# f = 2 on [0, 1), 1 on [1, 2) against u = v = 1 on [0, 1], p = q = 2: the
# instance the packaging smoke test runs through `crestimate hardy`
TWO_STEPS = make_step([0, 1, 2], [2, 1])


def test_chain_report_of_two_steps_matches_closed_forms():
    """int_0^{1/z} f is 3 for z <= 1/2 and 1/z + 1 above, so the middle term
    is sqrt(9/2 + int_{1/2}^1 (1/z + 1)^2 dz) = sqrt(6 + 2 ln 2); the
    transform side is checked against 30-digit quadrature of |fhat|^2 from
    fhat's closed form, not from the library's transform."""
    u = make_step([0, 1], [1])
    report = hardy_chain_report(TWO_STEPS, u, u, 2.0, 2.0)
    middle = math.sqrt(6.0 + 2.0 * math.log(2.0))
    assert abs(report.hardy_middle - middle) <= 1e-13 * middle

    def fhat_squared(z):
        e1, e2 = mpmath.exp(-1j * z), mpmath.exp(-2j * z)
        return abs((2 * (1 - e1) + (e1 - e2)) / (1j * z)) ** 2

    with mpmath.workdps(30):
        norm = float(mpmath.sqrt(mpmath.quad(fhat_squared, [0, 1])))
    assert abs(report.fourier_weighted_norm - norm) <= 1e-13 * norm
    for value, error in (
        (report.fourier_weighted_norm, report.fourier_quadrature_error),
        (report.hardy_middle, report.hardy_quadrature_error),
    ):
        assert 0.0 <= error < 1e-8 * value


def test_gauss_kronrod_with_a_relative_tolerance_gives_a_float():
    value, error = gauss_kronrod_adaptive(math.sqrt, [(0.0, 1.0)], rel_tol=1e-10)
    assert type(value) is float and type(error) is float
    assert abs(value - 2.0 / 3.0) <= 1e-10 * value


def test_the_panel_budget_raises_instead_of_returning(monkeypatch):
    # both integrals start from two panels on [0, 1], past a budget of one
    monkeypatch.setattr(hardy, "_MAX_PANELS", 1)
    u = make_step([0, 1], [1])
    with pytest.raises(ConvergenceError, match="budget of 1 panels"):
        hardy_lhs(TWO_STEPS, u, 2.0)
    with pytest.raises(ConvergenceError, match="budget of 1 panels"):
        hardy_chain_report(TWO_STEPS, u, u, 2.0, 2.0)


def test_fourier_weighted_norm_of_the_zero_function():
    assert fourier_weighted_norm(make_step([0, 1], [0]), make_step([0, 1], [1]), 2.0) == 0.0


def test_fourier_weighted_norm_localization():
    # a narrow weight picks out |fhat(a)| * eps^(1/q)
    eps = 1e-4
    u = make_step([2, 2 + eps], [1])
    value = fourier_weighted_norm(BOX, u, 2.0)
    expected = abs(2.0 * math.sin(1.0) / 2.0) * math.sqrt(eps)
    assert abs(value - expected) <= 0.01 * expected


def test_fourier_weighted_norm_panels_ignore_translation(monkeypatch):
    """|fhat| does not see where f sits, so the panels follow the support's
    width: a unit box on [1000, 1001] takes the calls the one on [0, 1] does."""
    u = make_step([0.5, 3], [1])
    calls = []

    def counting(g, z):
        calls.append(z)
        return fourier(g, z)

    monkeypatch.setattr(hardy, "fourier", counting)
    at_origin = fourier_weighted_norm(BOX, u, 2.0)
    origin_calls = len(calls)
    calls.clear()
    translated = fourier_weighted_norm(make_step([1000, 1001], [1]), u, 2.0)
    assert math.isclose(translated, at_origin, rel_tol=1e-12)
    assert len(calls) == origin_calls


def test_fourier_weighted_norm_validation():
    with pytest.raises(ValidationError, match="q must be positive"):
        fourier_weighted_norm(BOX, make_step([0, 1], [1]), -1.0)
    with pytest.raises(ValidationError, match="step function"):
        fourier_weighted_norm(BOX, G_STAR, 2.0)


def test_chain_report_fixed_instance():
    u = make_step([0, 1], [1])
    report = hardy_chain_report(BOX, u, u, 2.0, 2.0)
    assert math.isclose(report.fourier_weighted_norm, BOX_WEIGHTED_NORM, rel_tol=1e-6)
    assert abs(report.hardy_middle - 1.0) < 1e-9
    assert report.chain_constant == 0.5 * math.pi * math.sqrt(10.0)
    assert report.fourier_weighted_norm <= report.chain_constant * report.hardy_middle
    assert report.lambda_rhs == 1.0
    assert report.fourier_quadrature_error >= 0.0
    assert report.hardy_quadrature_error >= 0.0


def test_chain_report_decreasing_linear_input():
    u = make_step([0, 1], [1])
    v = make_step([0, 2], [1])
    report = hardy_chain_report(G_STAR, u, v, 2.0, 2.0)
    assert report.fourier_weighted_norm <= report.chain_constant * report.hardy_middle


def test_chain_is_positively_homogeneous():
    u = make_step([0, 1], [1])
    base = hardy_chain_report(BOX, u, u, 2.0, 2.0)
    tripled = hardy_chain_report(make_step([0, 1], [3]), u, u, 2.0, 2.0)
    for field in ("fourier_weighted_norm", "hardy_middle", "lambda_rhs"):
        assert math.isclose(
            getattr(tripled, field), 3.0 * getattr(base, field), rel_tol=1e-6
        )


def test_chain_random_instances():
    f_rng = rng_for(62, "chain/f")
    u_rng = rng_for(62, "chain/u")
    for i in range(30):
        f = random_decreasing_step(f_rng, max_pieces=6, max_width_units=32)
        u = random_weight(u_rng, max_pieces=4)
        q = (0.5, 1.0, 2.0, 3.0)[i % 4]
        lhs = fourier_weighted_norm(f, u, q)
        mid = hardy_lhs(f, u, q)
        assert lhs <= 0.5 * math.pi * math.sqrt(10.0) * mid * (1.0 + 1e-6)


def test_lambda_norm_smaller_than_plain_weighted_norm():
    # triangle bump against the tail weight chi_(1, 10]: the rearrangement
    # halves the profile on (1, 2], so the Lorentz norm is strictly smaller
    g = PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
    u = make_step([1, 10], [1])
    for p in (1.0, 2.0):
        lam = lorentz_lambda_norm(g, u, p)
        plain = (1.0 / (p + 1.0)) ** (1.0 / p)  # int_1^2 (2 - x)^p dx, exact
        assert lam < plain - 1e-6


def test_report_serializes_every_field():
    u = make_step([0, 1], [1])
    payload = hardy_chain_report(BOX, u, u, 2.0, 2.0).to_json_dict()
    for key in (
        "fourier_weighted_norm",
        "hardy_middle",
        "lambda_rhs",
        "chain_constant",
        "p",
        "q",
        "chain_ratio",
        "hardy_to_lambda_ratio",
        "fourier_quadrature_error",
        "hardy_quadrature_error",
    ):
        assert key in payload


def test_chain_ratio_is_none_where_the_hardy_middle_underflows():
    u = make_step([0, 1], [1])
    report = hardy_chain_report(make_step([0, 1e-300], [1]), u, u, 2.0, 2.0)
    assert report.hardy_middle == 0.0 and report.fourier_weighted_norm == 0.0
    assert report.chain_ratio is None
    assert report.lambda_rhs > 0.0


def test_hardy_to_lambda_ratio_is_none_where_the_quotient_overflows():
    box = make_step([0, 1], [1])
    report = hardy_chain_report(box, box, make_step([0, 1], [5e-324]), 1.0, 1.0)
    assert report.lambda_rhs == 5e-324 and report.hardy_middle > 0.5
    assert report.hardy_to_lambda_ratio is None
    assert report.chain_ratio is not None


def test_a_zero_piece_of_the_weight_adds_nothing_and_is_never_sampled(monkeypatch):
    f = make_step([0, 1, 3], [2, 1])
    u = make_step([0.5, 1, 2, 3], [1, 0, 2])
    assert u.values == (1.0, 0.0, 2.0)
    left, right = make_step([0.5, 1], [1]), make_step([2, 3], [2])
    sampled = []

    def recording(g, z):
        sampled.append(z)
        return fourier(g, z)

    monkeypatch.setattr(hardy, "fourier", recording)
    whole = fourier_weighted_norm(f, u, 1.0)
    assert sampled and not any(1.0 < z < 2.0 for z in sampled)
    assert whole == fourier_weighted_norm(f, left, 1.0) + fourier_weighted_norm(f, right, 1.0)
    assert hardy_lhs(f, u, 1.0) == hardy_lhs(f, left, 1.0) + hardy_lhs(f, right, 1.0)
