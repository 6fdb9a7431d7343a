import math

import pytest

from crestimate import (
    PiecewiseLinearFunction,
    ValidationError,
    ZeroFunctionError,
    comb_example,
    count_crests,
    decompose,
    evaluate,
    make_step,
)
from crestimate.generators import random_step_function, rng_for

from oracles import brute_force_crests

TWO_BOXES = make_step([0, 1, 2, 3], [1, 0, 1])
TRIANGLE = PiecewiseLinearFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))


def test_two_boxes_crest_twice():
    assert count_crests(TWO_BOXES) == 2


def test_constant_has_one_crest():
    assert count_crests(make_step([0, 5], [3])) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_comb_has_5n_crests(n):
    assert count_crests(comb_example(n)) == 5 * n


def test_decreasing_steps_crest_once():
    f = make_step([0, 1, 2, 3], [4, 2, 1])
    assert count_crests(f) == 1


def test_plateau_between_descent_and_ascent_is_one_valley():
    # node profile 2,1,1,2: the flat stretch is a single valley, two crests
    f = PiecewiseLinearFunction((0.0, 1.0, 2.0, 3.0), (2.0, 1.0, 1.0, 2.0))
    assert count_crests(f) == 2


def test_zero_function_is_rejected():
    with pytest.raises(ZeroFunctionError):
        count_crests(make_step([0, 1], [0]))
    with pytest.raises(ZeroFunctionError):
        decompose(PiecewiseLinearFunction((0.0, 1.0), (0.0, 0.0)))


def test_decompose_two_boxes():
    report = decompose(TWO_BOXES)
    assert report.count == 2
    assert report.cut_points == (1.5,)
    assert report.crest_locations == (0.0, 2.0)
    assert report.pieces == (make_step([0, 1], [1]), make_step([2, 3], [1]))


def test_decompose_decreasing_single_piece():
    f = make_step([0, 1, 3], [2, 1])
    report = decompose(f)
    assert report.count == 1
    assert report.cut_points == ()
    assert report.crest_locations == (0.0,)


def test_decompose_cut_at_boundary_of_minimal_piece():
    f = make_step([0, 1, 2, 3], [3, 1, 2])
    report = decompose(f)
    assert report.count == 2
    assert report.cut_points == (1.0,)
    assert brute_force_crests(f) == 2


def test_decompose_pieces_sum_and_are_unimodal():
    rng = rng_for(41, "decompose")
    for _ in range(200):
        f = random_step_function(rng, max_pieces=12)
        report = decompose(f)
        assert report.count == count_crests(f)
        assert len(report.pieces) == report.count
        for piece in report.pieces:
            assert count_crests(piece) == 1
        # almost disjoint supports: consecutive support ranges may only touch
        for left, right in zip(report.pieces, report.pieces[1:]):
            assert left.support_max <= right.support_min + 1e-15
        for _ in range(5):
            x = rng.uniform(f.support_min - 0.5, f.support_max + 0.5)
            total = math.fsum(evaluate(p, x) for p in report.pieces)
            assert total == evaluate(f, x)


def test_decompose_sum_exact_at_many_points():
    rng = rng_for(42, "decompose-sum")
    f = random_step_function(rng, min_pieces=8, max_pieces=20)
    report = decompose(f)
    for _ in range(1000):
        x = rng.uniform(f.support_min - 1.0, f.support_max + 1.0)
        assert math.fsum(evaluate(p, x) for p in report.pieces) == evaluate(f, x)


def test_decompose_linear_two_bumps():
    m_shape = PiecewiseLinearFunction(
        (0.0, 1.0, 2.0, 3.0, 4.0), (0.0, 1.0, 0.0, 1.0, 0.0)
    )
    report = decompose(m_shape)
    assert report.count == 2
    assert report.cut_points == (2.0,)
    assert report.crest_locations == (1.0, 3.0)
    rng = rng_for(43, "pl-sum")
    for _ in range(200):
        x = rng.uniform(-0.5, 4.5)
        assert math.fsum(evaluate(p, x) for p in report.pieces) == evaluate(m_shape, x)


def test_decompose_linear_zero_gap_cut_at_midpoint():
    f = PiecewiseLinearFunction(
        (0.0, 1.0, 2.0, 4.0, 5.0, 6.0), (0.0, 1.0, 0.0, 0.0, 1.0, 0.0)
    )
    report = decompose(f)
    assert report.cut_points == (3.0,)


@pytest.mark.parametrize(
    "f",
    [
        make_step([0, 1.5e308, 1.6e308, 1.7e308], [1, 0, 1]),
        PiecewiseLinearFunction((0, 1, 1.5e308, 1.6e308, 1.7e308), (0, 1, 0, 0, 1)),
    ],
    ids=["step", "linear"],
)
def test_zero_valley_cut_near_the_float_range_does_not_overflow(f):
    report = decompose(f)
    assert report.count == 2
    (cut,) = report.cut_points
    assert 1.5e308 < cut < 1.6e308


def test_count_is_reflection_invariant():
    rng = rng_for(44, "reflection")
    for _ in range(200):
        f = random_step_function(rng)
        mirrored = make_step(
            [-b for b in reversed(f.breakpoints)], list(reversed(f.values))
        )
        assert count_crests(mirrored) == count_crests(f)


def test_count_is_scaling_invariant():
    rng = rng_for(45, "scaling")
    for _ in range(100):
        f = random_step_function(rng)
        for c in (0.5, 3.0, 1024.0):
            scaled = make_step(f.breakpoints, [c * v for v in f.values])
            assert count_crests(scaled) == count_crests(f)


def test_linear_profiles():
    assert count_crests(TRIANGLE) == 1
    m_shape = PiecewiseLinearFunction(
        (0.0, 1.0, 2.0, 3.0, 4.0), (0.0, 1.0, 0.0, 1.0, 0.0)
    )
    assert count_crests(m_shape) == 2


def test_greedy_count_matches_brute_force():
    rng = rng_for(46, "oracle")
    for _ in range(200):
        f = random_step_function(rng, max_pieces=8)
        assert count_crests(f) == brute_force_crests(f)


def test_brute_force_budget_and_type_checks():
    wide = make_step(list(range(12)), [float(k % 2) for k in range(1, 12)])
    with pytest.raises(ValidationError, match="too many pieces"):
        brute_force_crests(wide)
    with pytest.raises(ValidationError, match="step functions only"):
        brute_force_crests(TRIANGLE)


def test_crest_report_serialization():
    report = decompose(TWO_BOXES)
    assert report.to_json_dict() == {
        "count": 2,
        "cut_points": [1.5],
        "crest_locations": [0.0, 2.0],
    }
